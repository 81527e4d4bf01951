(** In-network operators (§2.2).

    Mortar operators are non-blocking and duplicate-sensitive: thanks to
    time-division data partitioning, each user-defined operator only
    supplies a [merge] function (inject a tuple into the window — used both
    for merging {e across time} at sources and {e across space} at interior
    nodes). A sliding window is re-folded from its raw tuples at every
    slide, so no operator needs an inverse. No duplicate-insensitive
    synopses are required (§2.2, §8).

    An operator works over partial values of type {!Value.t}:

    - [init] is the empty partial (merge identity);
    - [lift raw] turns one raw payload into a partial;
    - [merge a b] combines two partials — it must be associative and
      commutative, since summaries arrive in any order over any tree;
    - [finalize part] converts a partial to the user-visible result.

    {!spec} is the symbolic, wire-friendly form carried inside query
    install messages; {!compile} resolves it to an implementation, looking
    up {!register}ed user-defined operators for {!Custom}. *)

type spec =
  | Sum
  | Count
  | Avg
  | Min
  | Max
  | Top_k of { k : int; key : string }
      (** Keep the [k] records with the largest [key] field. *)
  | Union of { cap : int }
      (** Concatenate raw values, keeping at most [cap] (0 = unlimited). *)
  | Entropy
      (** Shannon entropy (bits) of the distribution of string values. *)
  | Histogram of { lo : float; hi : float; bins : int }
  | Quantile of { q : float; lo : float; hi : float; bins : int }
      (** Approximate [q]-quantile ([0 < q < 1]) over a mergeable
          fixed-bin histogram sketch on [\[lo, hi\]]; the answer is exact
          to within one bin width. *)
  | Custom of { name : string; args : Value.t list }
  | Sketch_count_min of { depth : int; width : int; seed : int }
      (** Count-Min frequency sketch ({!Mortar_sketch.Count_min}): the
          result is the packed sketch itself; subscribers point-query it
          and read the exact total. *)
  | Sketch_agms of { rows : int; cols : int; seed : int }
      (** AGMS tug-of-war second-moment (self-join size) sketch
          ({!Mortar_sketch.Agms}); finalizes to the F2 estimate. *)
  | Sketch_hll of { b : int; seed : int }
      (** HyperLogLog distinct count ({!Mortar_sketch.Hll}) over [2^b]
          registers; finalizes to the cardinality estimate. Max-merge:
          idempotent, so duplicate delivery over a striped multipath
          tree union cannot skew it — the one operator family that
          retires the time-division requirement of §2.2. *)

(** How a source folds one window's raw tuples into a partial. *)
type window_fold =
  | Lift_merge
      (** [merge acc (lift v)] per tuple, from [init]: what every classic
          and user-defined operator does. *)
  | In_place : { create : unit -> 's; add : 's -> int -> unit; encode : 's -> string } -> window_fold
      (** One mutable state from [create], [add]ed the {!sketch_key} of
          every tuple, encoded once into a [Value.Str]. Only sound when
          that string equals the [Lift_merge] fold's bytes for the same
          tuples — true of the sketch family, whose cells add or max
          order-independently and whose wire form is a pure function of
          the cells. *)

type impl = {
  init : Value.t;
  lift : Value.t -> Value.t;
  merge : Value.t -> Value.t -> Value.t;
  finalize : Value.t -> Value.t;
  window_fold : window_fold;
}

val compile : spec -> impl
(** @raise Invalid_argument for an unregistered custom operator. *)

val fold : impl -> on_fault:(unit -> unit) -> ('a -> Value.t) -> 'a list -> Value.t
(** [fold impl ~on_fault payload items] folds a window's raw tuples into
    one partial, reading each tuple's payload with [payload]; the result
    is, on wire bytes, [List.fold_left (fun a x -> merge a (lift (payload
    x))) init items]. Under [Lift_merge] a tuple whose [lift] or [merge]
    raises {!Value.Type_error} is skipped and reported through
    [on_fault] (a query fault: the window survives, §2.2's non-blocking
    rule). An empty list folds to [init]. *)

val raw_payload : impl -> Value.t -> Value.t
(** What a source buffers of a tuple until its window folds: under
    [In_place] the tuple's {!sketch_key} as a [Value.Int], under
    [Lift_merge] the tuple itself. [fold] gives the same bytes over
    either. *)

val register : string -> (Value.t list -> impl) -> unit
(** Register a user-defined operator under a name usable from the Mortar
    Stream Language. Re-registration replaces. *)

val registered : string -> bool

val spec_name : spec -> string

val pp_spec : Format.formatter -> spec -> unit

val spec_wire_size : spec -> int

val state_wire_size : spec -> int option
(** Serialized cap of one partial for operators with a fixed-size state
    (the sketch family: dense-codec bound plus [Value.Str] framing);
    [None] when the partial grows with the data. The planner uses this
    to charge sketch queries their true result bytes. *)

val sketch_key : Value.t -> int
(** The deterministic item identity the sketch operators hash: ints map
    to themselves, single-field records unwrap to their field's value,
    and everything else hashes its canonical rendering. Exposed so
    subscribers point-querying a packed {!Sketch_count_min} result key
    it exactly as the in-network inserts did. *)
