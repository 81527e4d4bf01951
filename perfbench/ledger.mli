(** The one result ledger every workload scores its deliveries with.

    A delivery names the logical query, the root incarnation that
    produced it and the root-local window slot. Slots restart from zero
    whenever a query is (re-)installed, so the ledger keys windows on an
    absolute bucket instead: the slot shifted by the incarnation's
    install instant, in whole windows. Bucket [b] is the window that
    ends at [(b + 1) * window]. Per (query, bucket) the best emission
    wins: the highest count, the earliest among equals, so a straggler
    re-emission carrying only late tuples and a duplicate delivery
    change nothing. The steady windows are those that end inside the
    steady interval, the same bucket range for every query; each one
    with no emission is missed. *)

type emission = {
  query : string;  (** Logical query the delivery is for. *)
  base : float;  (** True time the emitting root incarnation was installed. *)
  slot : int;  (** Root-local window slot. *)
  count : int;  (** Contributors included. *)
  age : float;  (** Result age at delivery, simulated seconds. *)
  at : float;  (** True delivery time. *)
}

val bucket : window:float -> emission -> int
(** Absolute window bucket: [slot + round (base / window)]. *)

type score = {
  expected : int;  (** Steady (query, window) pairs, delivered or missed. *)
  missed : int;  (** Steady pairs with no delivery at all. *)
  completeness : float;
      (** Mean over the expected pairs of [min best expected_count /
          expected_count]; a missed pair counts as zero. *)
  ages : float array;  (** Age of each delivered pair's best emission, sorted. *)
}

val steady_buckets : window:float -> lo:float -> hi:float -> int * int
(** First and last bucket of the windows that end inside [\[lo, hi)]. *)

val score :
  window:float ->
  lo:float ->
  hi:float ->
  queries:string list ->
  live:(string -> int -> int) ->
  emission list ->
  score
(** Scores every query over the buckets of {!steady_buckets}, whenever
    their emissions arrived. [live query bucket] is the number of
    contributors expected for that window; pairs expecting none are
    left out. *)

val percentile : float array -> float -> float
(** Nearest-rank percentile of a sorted array; [nan] when empty. *)
