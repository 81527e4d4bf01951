(** The result ledger: every delivered emission of each logical query, and
    the one completeness policy every experiment scores with.

    - A {e window} is a (query, bucket) pair; the caller names the bucket
      (the root's slot, or a slot-independent key such as the window's
      birth instant where re-plans restart slot numbers).
    - A window's {e best emission} has the highest count; among equal
      counts, the earliest delivery. The choice does not depend on the
      order emissions are recorded in.
    - A window expecting [n > 0] contributors scores [min count n / n] for
      its best emission, and 0 with no emission at all. Windows expecting
      0 are left out.
    - Completeness is the mean score over the selected windows: either an
      inclusive bucket range (a window that never arrived is selected and
      scores 0), or the windows whose best emission was delivered in a
      time interval (a series against arrival time, as the paper plots).

    Every emission is kept, not only the best, for invariants that sum
    over all results. Tables are created up front by {!create}; recording
    writes only the named query's table, so each query must be recorded
    from one delivery host. *)

type 'a emission = {
  bucket : int;
  count : int; (** Contributors the emission reports. *)
  at : float; (** Delivery time. *)
  data : 'a; (** What the caller reads later — not a large raw value. *)
}

type 'a t

val create : string list -> 'a t
(** One empty table per named query. *)

val record : 'a t -> query:string -> bucket:int -> count:int -> at:float -> 'a -> unit
(** Emissions of a query not named at {!create} are dropped. *)

val emissions : 'a t -> string -> 'a emission list
(** Every emission of the query, in recording order. *)

val best : 'a t -> string -> int -> 'a emission option

type selection =
  | Buckets of int * int  (** The inclusive bucket range. *)
  | Delivered of float * float  (** Best emission delivered in [\[t0, t1)]. *)

val windows : 'a t -> string -> selection -> (int * 'a emission option) list
(** The selected windows of one query in bucket order, with their best
    emission ([None] only under [Buckets]). *)

val completeness : 'a t -> queries:(string * (int -> int)) list -> selection -> float
(** The mean score of the selected windows of [queries], each paired with
    its expected contributors per bucket; [nan] when none is selected. *)
