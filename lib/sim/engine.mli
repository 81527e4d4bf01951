(** Discrete-event simulation engine.

    Virtual time is a float in seconds, starting at [0.]. Events scheduled
    for the same instant fire in scheduling order (ties broken by a
    monotonically increasing sequence number), which keeps runs
    deterministic. The engine underlies every experiment in the repository:
    it plays the role ModelNet + the ASyncCore event loop played in the
    paper's evaluation.

    The engine knows nothing about nodes or networks; higher layers
    ({!Mortar_net.Transport}, peers, failure schedules) are built from
    [schedule] alone. *)

type t

type handle
(** A cancellation token for a scheduled event. *)

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> after:float -> (unit -> unit) -> handle
(** [schedule t ~after f] runs [f] at [now t +. after]. Negative delays are
    clamped to zero. *)

val schedule_at : t -> at:float -> (unit -> unit) -> handle
(** [schedule_at t ~at f] runs [f] at absolute virtual time [at]; times in
    the past are clamped to [now t]. *)

val cancel : handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val cancelled : handle -> bool

val every : t -> ?phase:float -> period:float -> (unit -> unit) -> handle
(** [every t ~phase ~period f] runs [f] at [now + phase], then every
    [period] seconds. Cancelling the returned handle stops the recurrence.
    [phase] defaults to [period]. *)

val run : ?until:float -> t -> unit
(** Drain the event queue, or stop once virtual time would exceed [until].
    When stopped by [until], [now t] is set to [until] and remaining events
    stay queued. *)

val run_before : t -> float -> unit
(** [run_before t bound] fires every event with [time < bound] — strictly:
    an event at exactly [bound] stays queued — then sets [now t] to
    [bound]. The conservative epoch scheduler drives each shard's engine
    with this; cross-shard messages merged at the epoch barrier are
    stamped [>= bound] by the lookahead bound, so they land ahead of the
    clock, never behind it. *)

val next_time : t -> float option
(** Time of the earliest queued event, or [None] on an empty queue.
    Includes cancelled-but-queued events, so it may under-estimate the
    next event that will actually fire — a safe lower bound for
    epoch-boundary computations. *)

val pending : t -> int
(** Number of queued (uncancelled) events. O(1): the engine tracks
    cancellations live rather than scanning the queue. *)

val fired : t -> int
(** Total events executed — a progress/diagnostic counter. *)
