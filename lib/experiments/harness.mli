(** The §7.2 microbenchmark harness.

    "These microbenchmarks deploy a sum query that subscribes to a stream
    at each peer in the system, counting the number of peers. Mortar uses
    a time window with range and slide equal to one second. A sensor at
    each system node produces the integer value 1 every second."

    {!Scenario.peer_count} describes that deployment — transit-stub
    topology, Vivaldi, network-aware plan, sensors, query install. This
    module builds it and records every root result in a {!Ledger} (keyed
    by the root's slot) against true simulation time; bandwidth is
    {!Mortar_emul.Deployment.mbps} of {!deployment}. The [mean_*] figures
    score the best emission of each window delivered in the interval, by
    the ledger's policy. *)

type recorded = {
  sim_time : float;
  slot : int;
  count : int;
  value : float;
  hops : int; (** Count-weighted mean constituent path. *)
  hops_max : int; (** Longest constituent path. *)
  age : float;
}

type t

val create : Scenario.t -> t
(** Build the scenario ({!Scenario.build}) and record every result host 0
    delivers. The scenario is normally
    {!Scenario.peer_count} with fields overridden: {!union_bound} reads
    its first tree set, and its query is named {!query_name}. Call
    {!run_until} to advance. *)

val deployment : t -> Mortar_emul.Deployment.t

val query_name : string

val run_until : t -> float -> unit

val results : t -> recorded list
(** All root results so far, re-emissions included, oldest first. *)

val results_between : t -> float -> float -> recorded list

val provenance_results : t -> (float * (int * int) list) list
(** (sim emit time, provenance) per result, when tracking was enabled. *)

val live_hosts : t -> int

val union_bound : t -> int
(** Live nodes reachable from the root in the union graph right now. *)

val fail_fraction : t -> float -> int list
(** Disconnect a random fraction (never the root); returns the victims. *)

val reconnect : t -> int list -> unit

val repaired_unreachable : t -> int list
(** Live installed hosts (sorted) with no union path of {e current}
    (repair-mutated) parent edges — over live installed hosts only — to
    the root: the set the self-healing invariants require to drain to
    empty within the MTTR bound. The static-plan analogue is
    {!union_bound}. *)

val uninstalled_live_hosts : t -> int list
(** Live non-root hosts (sorted) that do not have the query installed —
    crash-rejoiners still waiting on reconciliation or fast resync. *)

val mean_completeness : t -> float -> float -> denominator:int -> float
(** {!Ledger.completeness} of the windows delivered in the interval, each
    expecting [denominator] contributors. *)

val mean_path_length : t -> float -> float -> float

val mean_max_path_length : t -> float -> float -> float
(** Mean over windows of the longest constituent path — rises under
    failures as rerouted tuples take extra overlay hops (§7.2.2). *)

val mean_latency : t -> float -> float -> float
(** Mean result age (seconds behind the window) over the windows delivered
    in the interval. *)
