(** One experiment set-up as plain data, and the one builder that turns it
    into a running deployment.

    A scenario states a problem instance as a platform (topology and
    deployment) plus an application (tree sets, sensors, query installs
    and faults), after Benoit et al. The record holds no closures: value
    generators are named by {!value}, seeds are stored as given, and
    faults are {!Mortar_emul.Deployment.fault_event}s or the parameters of
    {!Mortar_emul.Deployment.composed_churn}.

    {2 Build order}

    {!build} runs these steps, in this order, for every scenario:
    topology → deployment → coordinates → tree sets → sensors → installs
    → faults. Tree sets, sensor groups, installs and faults each go in
    list order, and a group's hosts in ascending (or listed) order. Every
    draw from the deployment RNG (Vivaldi, a planned tree set, a sensor's
    phase) happens in that order, so a change to a later step never moves
    an earlier draw.

    {2 Derived, not set}

    - Coordinates converge iff a tree set is [Planned] or a [planner] is
      given: random tree sets alone draw nothing for Vivaldi.
    - A tree set's members never include its root ([All] is every other
      host). A [Planned] set with no members is the root alone on one
      tree and draws nothing.
    - A query runs at its tree set's [degree]: {!build} overwrites
      [meta.degree], which seeds the query's starting stripe.
    - A sensor stamps each tuple with its ground-truth slot when a query
      on its stream tracks provenance, at that query's window slide.
    - With a [planner], {!build} creates the {!Mortar_plan.Registry}; its
      caller installs the planner's actions. *)

type topology = { seed : int; hosts : int; transits : int; stubs : int }

type deployment = {
  seed : int;
  config : Mortar_core.Peer.config;
  loss : float; (** Uniform per-message drop probability. *)
  offsets : float array option; (** Clock offsets by host, seconds. *)
  skews : float array option;
}

type hosts = All | Only of int list

(** Network-aware with that sibling derivation, or random trees. *)
type shape = Planned of [ `Rotation | `Cluster_shuffle ] | Random

type tree_set = { root : int; members : hosts; bf : int; degree : int; shape : shape }

type planner = { bf : int; degree : int; seed : int }
(** {!Mortar_plan.Place.ctx}'s parameters (its default candidate count). *)

(** What host [node] injects as its [k]-th tuple. *)
type value =
  | Ones  (** [Int 1]: the §7.2 peer count. *)
  | Zipf_record of { domain : int }
      (** [{id = node * 1_000_000 + k; v}], [v] by {!draw_value}. *)
  | Ramp  (** [Float ((node + k) mod 100)]. *)

type sensors = { stream : string; period : float; hosts : hosts; value : value }

type install = {
  meta : Mortar_core.Query.meta;
      (** Installed at [meta.root]; its [degree] is the tree set's. *)
  tree_set : int; (** Index into [tree_sets]. *)
  at : float;
}

(** {!Mortar_emul.Deployment.composed_churn}'s parameters; [seed] seeds
    the schedule's own RNG. *)
type churn = {
  seed : int; from : float; until : float; protect : int list;
  churn_period : float; churn_kills : int; down_min : float; down_max : float;
  burst_period : float; burst_len : float;
  kill_period : float; kill_fraction : float; kill_len : float;
}

type t = {
  topology : topology;
  deployment : deployment;
  tree_sets : tree_set list;
  planner : planner option;
  sensors : sensors list;
  queries : install list;
  faults : Mortar_emul.Deployment.fault_event list;
  churn : churn option;
}

val peer_count : seed:int -> hosts:int -> t
(** The §7.2 microbenchmark: [hosts] over 8 transits and 34 stubs
    (topology seed [seed * 7919]), deployment seed [seed], default peer
    config; one network-aware tree set over every host, rooted at 0, bf
    16, four trees; a 1 Hz [Ones] sensor on ["ones"] at every host; one
    syncless tumbling 1 s [Sum] named {!peer_count_query} installed at
    1 s; no faults. Override fields with [{ s with ... }]. *)

val peer_count_query : string

val map_tree_sets : (tree_set -> tree_set) -> t -> t

val map_metas : (Mortar_core.Query.meta -> Mortar_core.Query.meta) -> t -> t

type built = {
  d : Mortar_emul.Deployment.t;
  tree_sets : Mortar_overlay.Treeset.t array; (** In [tree_sets] order. *)
  registry : Mortar_plan.Registry.t option; (** [Some] iff [planner] is. *)
}

val topology : t -> Mortar_net.Topology.t
(** The first step alone, for a caller that describes the rest over the
    topology (which stub to cut, which stubs a query reads). *)

val build : ?domains:int -> t -> built
(** Build in the order above. [domains] is the execution width and never
    changes a result.
    @raise Invalid_argument when a query's [tree_set] is out of range. *)

val attach_sensors : Mortar_emul.Deployment.t -> queries:install list -> sensors list -> unit
(** The sensor step alone. *)

val zipf_cdf : int -> float array
(** Cumulative Zipf(1) weights over [\[0, domain)]. *)

val draw_value : float array -> host:int -> k:int -> int
(** Host [host]'s [k]-th draw from a {!zipf_cdf}, a pure function of
    [(host, k)] by seeded hashing. *)
