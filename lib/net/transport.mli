(** Best-effort datagram transport over a simulated topology.

    Models the role UdpCC played in the Mortar prototype: unreliable,
    unordered, duplicate-suppressed datagrams. Delivery takes the one-way
    latency from the topology; a message is dropped if either endpoint is
    down at send time, or if the {e destination} is down at delivery time
    — an in-flight datagram outlives its sender's crash, as a real packet
    would. An optional uniform loss rate models residual packet loss, and
    an attached {!Faults} table adds link-level partitions, asymmetric and
    bursty loss, and delay jitter per (src, dst) pair.

    Bandwidth accounting follows the paper's "total network load" metric:
    each delivered-or-dropped-in-flight message contributes
    [size * physical hops] bytes, bucketed by virtual time and by a
    caller-supplied traffic kind (e.g. ["data"], ["heartbeat"], ["control"])
    so that experiments can report overhead splits (Fig 14). *)

type 'a t
(** A transport carrying payloads of type ['a]. *)

val bucket : float
(** Width in seconds of every bandwidth-series bucket ([1.]). *)

val create :
  Mortar_sim.Engine.t ->
  Topology.t ->
  ?loss:float ->
  ?seen_cap:int ->
  rng:Mortar_util.Rng.t ->
  unit ->
  'a t
(** A stand-alone, one-shard transport on one engine. [loss] is a
    per-message drop probability (default [0.]); [seen_cap] bounds each
    destination's duplicate-suppression memory (default [4096] keys,
    oldest forgotten first). Attach a fault table with {!set_faults}. *)

type 'a remote =
  deliver_at:float ->
  src:Topology.host ->
  dst:Topology.host ->
  kind:string ->
  key:string option ->
  'a ->
  unit
(** A cross-shard post: a message that survived the send-side checks
    (liveness, loss, faults, accounting) and must be delivered on another
    shard's engine at absolute time [deliver_at]. *)

val create_sharded :
  engines:Mortar_sim.Engine.t array ->
  shard_of:int array ->
  rngs:Mortar_util.Rng.t array ->
  remote:(int -> 'a remote) ->
  Topology.t ->
  ?loss:float ->
  ?seen_cap:int ->
  unit ->
  'a t array
(** One transport instance per logical shard, sharing a single
    liveness/handler/duplicate-memory store (indexed by host; each slot
    is only ever touched from its owner shard's domain, or from the
    control thread at an epoch barrier). Instance [s] runs on
    [engines.(s)] and draws from [rngs.(s)]; a send whose destination
    lives on another shard ([shard_of], indexed by host) is handed to
    [remote s] instead of being scheduled locally. Route every
    {!set_up} through instance [0] so its {!up_count} tracks the shared
    array; {!register} on the owning instance. Fault tables are
    attached per instance ({!Faults.shard_view}). *)

val deliver_msg :
  'a t ->
  src:Topology.host ->
  dst:Topology.host ->
  kind:string ->
  key:string option ->
  'a ->
  unit
(** Delivery-time half of {!send}: destination-liveness check, duplicate
    suppression, handler dispatch. Exposed for the sharded deployment,
    which calls it on the {e destination} shard's instance when draining
    cross-shard outboxes; stand-alone users never need it. *)

val register : 'a t -> Topology.host -> (src:Topology.host -> 'a -> unit) -> unit
(** Install the delivery handler for a host; replaces any previous one. *)

val on_deliver :
  'a t -> (src:Topology.host -> dst:Topology.host -> kind:string -> unit) -> unit
(** Add a delivery observer, called for every delivered message after
    duplicate suppression — measurement only (tests assert e.g. that no
    message crosses an active partition). *)

val set_faults : _ t -> Faults.t -> unit
(** Attach (or replace) the fault table. *)

val send :
  'a t ->
  src:Topology.host ->
  dst:Topology.host ->
  size:int ->
  ?kind:string ->
  ?key:string ->
  'a ->
  unit
(** Fire-and-forget send of [size] bytes. [kind] tags bandwidth accounting
    (default ["data"]). When [key] is given, the receiving host drops any
    later message carrying the same key (duplicate suppression, §4.3),
    remembering at most [seen_cap] recent keys. The fault table, if any,
    is consulted once per send. Sending to self delivers after a
    zero-latency hop on the next event. *)

val set_up : _ t -> Topology.host -> bool -> unit
(** Mark a host reachable/unreachable. Messages in flight towards a host
    that goes down are lost; messages in flight {e from} it are not. *)

val is_up : _ t -> Topology.host -> bool
(** Hosts start up. *)

val up_count : _ t -> int

val seen_keys : _ t -> dst:Topology.host -> int
(** Number of duplicate-suppression keys currently remembered for a
    destination (bounded by [seen_cap]; introspection for tests). *)

val clear_seen : _ t -> dst:Topology.host -> unit
(** Forget [dst]'s duplicate-suppression memory, as a process restart
    does. Also the reclamation path for long churn runs: without it every
    host that ever crashed pins up to [seen_cap] keys forever. *)

val bytes_series : _ t -> kind:string -> Mortar_sim.Series.t option
(** Link-bytes series for one traffic kind, if any traffic was sent. *)

val total_bytes : _ t -> float
(** All link-bytes since creation, across kinds. *)

val total_bytes_of_kind : _ t -> kind:string -> float

val kinds : _ t -> string list

val messages_sent : _ t -> int

val messages_delivered : _ t -> int
