(** Peer-to-peer wire messages.

    Every inter-peer interaction — data tuples, heartbeats, query
    management, reconciliation, topology service — is one of these
    payloads. {!wire_size} estimates the serialized size for the
    simulator's bandwidth accounting. *)

type payload =
  | Data of {
      query : string;
      seqno : int;
      tree : int; (** Tree on which the tuple travels (arrival tree). *)
      summary : Summary.t;
      visited : (int * int) list; (** Per-tree last visited level (§3.3). *)
      path : int list; (** Recently visited node ids, newest first (bounded);
                           strengthens the paper's level-only cycle
                           avoidance — see {!Routing.route}. *)
      ttl_down : int;
      digest : string; (** Sender's query digest: removal reconciliation
                           piggybacks on tuple arrivals (§6.1). *)
    }
  | Heartbeat of { digest : string option }
      (** [digest] present every [reconcile_every]-th beat (§7.1 uses every
          third). *)
  | Reconcile_request of { installed : (string * int * int) list;
                           removed : (string * int) list }
      (** (name, seqno, root) for installs — the root locates the topology
          server; (name, seqno) for removals. *)
  | Reconcile_reply of { installed : (string * int * int) list;
                         removed : (string * int) list }
  | Install of {
      meta : Query.meta;
      members : (int * Query.node_view) list;
      edges : (int * int) list; (** Forwarding edges inside the chunk. *)
      age : float; (** Seconds since the injector issued the install, used
                       to correct the syncless install delta (§5.1). *)
    }
  | Remove of { name : string; seqno : int }
  | View_request of { name : string }
      (** Sent to a query root by a peer (re)installing via
          reconciliation. *)
  | View_reply of { meta : Query.meta; view : Query.node_view option; age : float }
  | Adopt of { query : string; seqno : int; tree : int }
      (** Self-healing: the sender re-parented onto the receiver on [tree]
          after losing every union parent, and asks to be recorded as a
          child there — restoring the heartbeat symmetry and downward
          (flex-down) reachability the static view would otherwise lose.
          Ignored unless the receiver runs the same [query]/[seqno]. *)
  | Result_fwd of { query : string; slot : int; value : Value.t; count : int; age : float }
      (** Shared-tree result fan-out: the physical query root forwards a
          finished (non-boundary) result to a subscriber host that rides
          on the shared tree set but is not the root itself. Fire-and-
          forget, like data tuples. *)
  | Reliable of { token : int; inner : payload }
      (** Reliable-delivery envelope for control messages: the receiver
          acks [token] back to the sender and processes [inner] once;
          the sender retransmits on timeout with exponential backoff
          until acked or its retry budget runs out (then §6.1
          reconciliation catches the straggler up). Data tuples are never
          wrapped — they stay fire-and-forget, as in the paper. *)
  | Ack of { token : int }

val wire_size : payload -> int

val traffic : payload -> Mortar_net.Transport.traffic
(** Traffic class for bandwidth accounting: [Data], [Heartbeat],
    [Result] ({!Result_fwd} fan-out) or [Control]. A {!Reliable}
    envelope takes its inner payload's class; {!Ack}s are [Control]. *)

