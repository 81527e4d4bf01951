module Obs = Mortar_obs.Obs

(* Per-destination duplicate-suppression memory, bounded: keys are
   remembered FIFO and the oldest forgotten beyond [cap], so a long
   simulation cannot leak (§4.3 only needs recent keys — retransmits
   arrive within a handful of RTTs). *)
type seen = {
  tbl : (string, unit) Hashtbl.t;
  order : string Queue.t;
}

(* Hosts are dense indices, so the per-host state (handler, liveness,
   duplicate memory) lives in flat arrays rather than hash tables: the
   send/deliver path is the innermost loop of every experiment and at
   10k hosts the hashing dominated it. *)
type 'a remote =
  deliver_at:float ->
  src:Topology.host ->
  dst:Topology.host ->
  kind:string ->
  key:string option ->
  'a ->
  unit

type 'a t = {
  engine : Mortar_sim.Engine.t;
  topo : Topology.t;
  loss : float;
  seen_cap : int;
  rng : Mortar_util.Rng.t;
  mutable faults : Faults.t option;
  handlers : (src:Topology.host -> 'a -> unit) option array;
  mutable observers : (src:Topology.host -> dst:Topology.host -> kind:string -> unit) array;
  up : bool array;
  mutable up_alive : int; (* invariant: number of [true] slots in [up] *)
  seen : seen option array;
  by_kind : (string, Mortar_sim.Series.t) Hashtbl.t;
  (* Two-slot memo for [account]: steady-state traffic interleaves two
     kinds (data and heartbeat), so a single-slot cache thrashed on
     every other send. Slot 1 is the most recent hit. *)
  mutable kind_cache : (string * Mortar_sim.Series.t) option;
  mutable kind_cache2 : (string * Mortar_sim.Series.t) option;
  mutable sent : int;
  mutable delivered : int;
  (* This instance serves the hosts of one logical shard. A send whose
     destination maps to another shard is handed to [remote] (the
     deployment's outbox) instead of scheduled locally;
     [up]/[handlers]/[seen] are shared across all sibling instances
     (indexed by host, each slot touched only by its owner shard). *)
  shard : int;
  shard_of : int array;
  remote : 'a remote;
}

let bucket = 1.0

let create_sharded ~engines ~shard_of ~rngs ~remote topo ?(loss = 0.0) ?(seen_cap = 4096) () =
  let n = Topology.hosts topo in
  let up = Array.make n true in
  let handlers = Array.make n None in
  let seen = Array.make n None in
  Array.init (Array.length engines) (fun s ->
      {
        engine = engines.(s);
        topo;
        loss;
        seen_cap = max 1 seen_cap;
        rng = rngs.(s);
        faults = None;
        handlers;
        observers = [||];
        up;
        (* Meaningful only on instance 0: the deployment routes every
           [set_up] through it, so its count tracks the shared array. *)
        up_alive = n;
        seen;
        by_kind = Hashtbl.create 8;
        kind_cache = None;
        kind_cache2 = None;
        sent = 0;
        delivered = 0;
        shard = s;
        shard_of;
        remote = remote s;
      })

(* A stand-alone transport is the one-shard case: every host maps to
   shard 0, so [remote] is unreachable. *)
let create engine topo ?loss ?seen_cap ~rng () =
  let remote _ ~deliver_at:_ ~src:_ ~dst:_ ~kind:_ ~key:_ _ =
    invalid_arg "Transport: cross-shard send on a one-shard transport"
  in
  (create_sharded ~engines:[| engine |]
     ~shard_of:(Array.make (Topology.hosts topo) 0)
     ~rngs:[| rng |] ~remote topo ?loss ?seen_cap ()).(0)

let register t host f = t.handlers.(host) <- Some f

(* Prepend, matching the old list's newest-first observer order. *)
let on_deliver t f = t.observers <- Array.append [| f |] t.observers

let set_faults t faults = t.faults <- Some faults

let set_up t host b =
  if t.up.(host) <> b then begin
    t.up.(host) <- b;
    t.up_alive <- (if b then t.up_alive + 1 else t.up_alive - 1)
  end

let is_up t host = t.up.(host)

let up_count t = t.up_alive

let account t ~kind ~bytes =
  let series =
    match t.kind_cache with
    | Some (k, s) when String.equal k kind -> s
    | slot1 ->
      (match t.kind_cache2 with
      | Some (k, s) when String.equal k kind ->
        t.kind_cache2 <- slot1;
        t.kind_cache <- Some (kind, s);
        s
      | _ ->
        let s =
          match Hashtbl.find_opt t.by_kind kind with
          | Some s -> s
          | None ->
            let s = Mortar_sim.Series.create ~bucket in
            Hashtbl.replace t.by_kind kind s;
            s
        in
        t.kind_cache2 <- slot1;
        t.kind_cache <- Some (kind, s);
        s)
  in
  Mortar_sim.Series.incr series ~time:(Mortar_sim.Engine.now t.engine) bytes

let duplicate t ~dst ~key =
  let entry =
    match t.seen.(dst) with
    | Some e -> e
    | None ->
      let e = { tbl = Hashtbl.create 256; order = Queue.create () } in
      t.seen.(dst) <- Some e;
      e
  in
  if Hashtbl.mem entry.tbl key then true
  else begin
    Hashtbl.replace entry.tbl key ();
    Queue.push key entry.order;
    while Hashtbl.length entry.tbl > t.seen_cap do
      Hashtbl.remove entry.tbl (Queue.pop entry.order)
    done;
    false
  end

let seen_keys t ~dst =
  match t.seen.(dst) with None -> 0 | Some e -> Hashtbl.length e.tbl

(* A process restart loses its duplicate-suppression memory with the rest
   of its state; dropping the table also keeps multi-hour churn runs from
   holding [seen_cap] keys for every host that ever crashed. Fresh keys
   are never suppressed by this: senders' keys are globally unique. *)
let clear_seen t ~dst = t.seen.(dst) <- None

(* Delivery-time half of [send]. Split out of the in-flight closure so
   the sharded deployment can invoke it directly when a cross-shard
   message drains from an outbox into the destination shard's engine —
   [t] is then the {e destination} shard's instance, so its counters and
   duplicate memory are the ones that see the message. *)
let[@lint.hot] deliver_msg t ~src ~dst ~kind ~key payload =
  (* Only the destination's liveness matters at delivery time: a
     datagram already in flight outlives its sender's crash. *)
  if t.up.(dst) then begin
    let dup = match key with Some k -> duplicate t ~dst ~key:k | None -> false in
    if dup then begin
      if !Obs.enabled then begin
        Obs.incr "transport.dup_suppressed";
        Obs.trace
          ~t:(Mortar_sim.Engine.now t.engine)
          (Obs.Dup_suppressed { dst; kind })
      end
    end
    else
      match t.handlers.(dst) with
      | Some f ->
        t.delivered <- t.delivered + 1;
        if !Obs.enabled then begin
          Obs.incr "transport.delivered";
          Obs.trace
            ~t:(Mortar_sim.Engine.now t.engine)
            (Obs.Tuple_recv { src; dst; kind })
        end;
        (* Indexed loop, not Array.iter: the iter callback would be a
           fresh closure allocation on every single delivery. *)
        for i = 0 to Array.length t.observers - 1 do
          t.observers.(i) ~src ~dst ~kind
        done;
        f ~src payload
      | None -> ()
  end
  else if !Obs.enabled then begin
    Obs.incr "transport.dropped.down_at_delivery";
    Obs.trace
      ~t:(Mortar_sim.Engine.now t.engine)
      (Obs.Tuple_drop { src; dst; kind; reason = "down_at_delivery" })
  end

(* The branch structure below mirrors the old short-circuit condition
   exactly — the loss draw happens only when both endpoints are up, and
   [Faults.decide] only when the loss draw passes — so seeded replays
   consume the RNG in the same order whether or not Obs is enabled. *)
let[@lint.hot] send t ~src ~dst ~size ?(kind = "data") ?key payload =
  t.sent <- t.sent + 1;
  if not (t.up.(src) && t.up.(dst)) then begin
    if !Obs.enabled then begin
      Obs.incr "transport.dropped.down";
      Obs.trace
        ~t:(Mortar_sim.Engine.now t.engine)
        (Obs.Tuple_drop { src; dst; kind; reason = "down" })
    end
  end
  else if not (Float.equal t.loss 0.0 || Mortar_util.Rng.float t.rng 1.0 >= t.loss) then begin
    if !Obs.enabled then begin
      Obs.incr "transport.dropped.loss";
      Obs.trace
        ~t:(Mortar_sim.Engine.now t.engine)
        (Obs.Tuple_drop { src; dst; kind; reason = "loss" })
    end
  end
  else begin
    let verdict =
      match t.faults with
      | None -> Faults.pass
      | Some f -> Faults.decide f ~src ~dst
    in
    if verdict.Faults.drop then begin
      if !Obs.enabled then begin
        Obs.incr "transport.dropped.fault";
        Obs.trace
          ~t:(Mortar_sim.Engine.now t.engine)
          (Obs.Tuple_drop { src; dst; kind; reason = "fault" })
      end
    end
    else begin
      let hops = max 1 (Topology.hops t.topo src dst) in
      account t ~kind ~bytes:(float_of_int (size * hops));
      if !Obs.enabled then begin
        Obs.incr ("transport.sent." ^ kind);
        Obs.trace
          ~t:(Mortar_sim.Engine.now t.engine)
          (Obs.Tuple_send { src; dst; kind; size })
      end;
      let delay = Topology.latency t.topo src dst +. verdict.Faults.extra_delay in
      if t.shard_of.(dst) <> t.shard then
        (* Cross-shard: hand the message to the deployment's outbox
           rather than this engine. The lookahead bound guarantees
           [deliver_at] is still in the destination shard's future, and
           the outbox drain gives the merge a canonical total order. *)
        t.remote ~deliver_at:(Mortar_sim.Engine.now t.engine +. delay) ~src ~dst ~kind ~key
          payload
      else
        ignore
          (* lint: allow D9 the deferred delivery closure IS the in-flight message *)
          (Mortar_sim.Engine.schedule t.engine ~after:delay (fun () ->
               deliver_msg t ~src ~dst ~kind ~key payload))
    end
  end

let bytes_series t ~kind = Hashtbl.find_opt t.by_kind kind

let total_bytes_of_kind t ~kind =
  match Hashtbl.find_opt t.by_kind kind with
  | None -> 0.0
  | Some s ->
    List.fold_left (fun acc (r : Mortar_sim.Series.row) -> acc +. r.sum) 0.0
      (Mortar_sim.Series.rows s)

let kinds t = Hashtbl.fold (fun k _ acc -> k :: acc) t.by_kind [] |> List.sort compare

let total_bytes t =
  List.fold_left (fun acc k -> acc +. total_bytes_of_kind t ~kind:k) 0.0 (kinds t)

let messages_sent t = t.sent

let messages_delivered t = t.delivered
