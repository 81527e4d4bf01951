module Obs = Mortar_obs.Obs
module Series = Mortar_sim.Series

type traffic = Control | Data | Heartbeat | Result

let all_traffic = [ Control; Data; Heartbeat; Result ]

(* The one name table: metric names, trace fields and the report tables
   all spell a class through it. *)
let traffic_name = function
  | Control -> "control"
  | Data -> "data"
  | Heartbeat -> "heartbeat"
  | Result -> "result"

let traffic_of_name name =
  List.find_opt (fun c -> String.equal (traffic_name c) name) all_traffic

(* Index of a class's bytes series; [all_traffic] lists the classes in
   slot order. *)
let slot = function Control -> 0 | Data -> 1 | Heartbeat -> 2 | Result -> 3

(* Built once, so a traced send does not concatenate a metric name. *)
let sent_metric =
  Array.of_list (List.map (fun c -> "transport.sent." ^ traffic_name c) all_traffic)

(* Hosts are dense indices, so the per-host state (handler, liveness)
   lives in flat arrays rather than hash tables: the send/deliver path is
   the innermost loop of every experiment and at 10k hosts the hashing
   dominated it. *)
type 'a remote =
  deliver_at:float -> src:Topology.host -> dst:Topology.host -> traffic:traffic -> 'a -> unit

type 'a t = {
  engine : Mortar_sim.Engine.t;
  topo : Topology.t;
  loss : float;
  rng : Mortar_util.Rng.t;
  mutable faults : Faults.t option;
  handlers : (src:Topology.host -> 'a -> unit) option array;
  mutable observers : (src:Topology.host -> dst:Topology.host -> traffic:traffic -> unit) array;
  up : bool array;
  bytes : Series.t array; (* link bytes, one series per class, by [slot] *)
  mutable sent : int;
  mutable delivered : int;
  (* This instance serves the hosts of one logical shard. A send whose
     destination maps to another shard is handed to [remote] (the
     deployment's outbox) instead of scheduled locally; [up]/[handlers]
     are shared across all sibling instances (indexed by host, each slot
     touched only by its owner shard). *)
  shard : int;
  shard_of : int array;
  remote : 'a remote;
}

let bucket = 1.0

let create_sharded ~engines ~shard_of ~rngs ~remote topo ?(loss = 0.0) () =
  let n = Topology.hosts topo in
  let up = Array.make n true in
  let handlers = Array.make n None in
  Array.init (Array.length engines) (fun s ->
      {
        engine = engines.(s);
        topo;
        loss;
        rng = rngs.(s);
        faults = None;
        handlers;
        observers = [||];
        up;
        bytes = Array.init (List.length all_traffic) (fun _ -> Series.create ~bucket);
        sent = 0;
        delivered = 0;
        shard = s;
        shard_of;
        remote = remote s;
      })

(* A stand-alone transport is the one-shard case: every host maps to
   shard 0, so [remote] is unreachable. *)
let create engine topo ?loss ~rng () =
  let remote _ ~deliver_at:_ ~src:_ ~dst:_ ~traffic:_ _ =
    invalid_arg "Transport: cross-shard send on a one-shard transport"
  in
  (create_sharded ~engines:[| engine |]
     ~shard_of:(Array.make (Topology.hosts topo) 0)
     ~rngs:[| rng |] ~remote topo ?loss ()).(0)

let register t host f = t.handlers.(host) <- Some f

(* Prepend, matching the old list's newest-first observer order. *)
let on_deliver t f = t.observers <- Array.append [| f |] t.observers

let set_faults t faults = t.faults <- Some faults

let set_up t host b = t.up.(host) <- b

let is_up t host = t.up.(host)

(* Delivery-time half of [send]. Split out of the in-flight closure so
   the sharded deployment can invoke it directly when a cross-shard
   message drains from an outbox into the destination shard's engine —
   [t] is then the {e destination} shard's instance, so its counters are
   the ones that see the message. *)
let[@lint.hot] deliver_msg t ~src ~dst ~traffic payload =
  (* Only the destination's liveness matters at delivery time: a
     datagram already in flight outlives its sender's crash. *)
  if t.up.(dst) then begin
    match t.handlers.(dst) with
    | Some f ->
      t.delivered <- t.delivered + 1;
      if !Obs.enabled then begin
        Obs.incr "transport.delivered";
        Obs.trace
          ~t:(Mortar_sim.Engine.now t.engine)
          (Obs.Tuple_recv { src; dst; kind = traffic_name traffic })
      end;
      (* Indexed loop, not Array.iter: the iter callback would be a
         fresh closure allocation on every single delivery. *)
      for i = 0 to Array.length t.observers - 1 do
        t.observers.(i) ~src ~dst ~traffic
      done;
      f ~src payload
    | None -> ()
  end
  else if !Obs.enabled then begin
    Obs.incr "transport.dropped.down_at_delivery";
    Obs.trace
      ~t:(Mortar_sim.Engine.now t.engine)
      (Obs.Tuple_drop { src; dst; kind = traffic_name traffic; reason = "down_at_delivery" })
  end

(* The branch structure below mirrors the old short-circuit condition
   exactly — the loss draw happens only when both endpoints are up, and
   [Faults.decide] only when the loss draw passes — so seeded replays
   consume the RNG in the same order whether or not Obs is enabled. *)
let[@lint.hot] send t ~src ~dst ~size ~traffic payload =
  t.sent <- t.sent + 1;
  if not (t.up.(src) && t.up.(dst)) then begin
    if !Obs.enabled then begin
      Obs.incr "transport.dropped.down";
      Obs.trace
        ~t:(Mortar_sim.Engine.now t.engine)
        (Obs.Tuple_drop { src; dst; kind = traffic_name traffic; reason = "down" })
    end
  end
  else if not (Float.equal t.loss 0.0 || Mortar_util.Rng.float t.rng 1.0 >= t.loss) then begin
    if !Obs.enabled then begin
      Obs.incr "transport.dropped.loss";
      Obs.trace
        ~t:(Mortar_sim.Engine.now t.engine)
        (Obs.Tuple_drop { src; dst; kind = traffic_name traffic; reason = "loss" })
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
          (Obs.Tuple_drop { src; dst; kind = traffic_name traffic; reason = "fault" })
      end
    end
    else begin
      let hops = max 1 (Topology.hops t.topo src dst) in
      Series.incr t.bytes.(slot traffic)
        ~time:(Mortar_sim.Engine.now t.engine)
        (float_of_int (size * hops));
      if !Obs.enabled then begin
        Obs.incr sent_metric.(slot traffic);
        Obs.trace
          ~t:(Mortar_sim.Engine.now t.engine)
          (Obs.Tuple_send { src; dst; kind = traffic_name traffic; size })
      end;
      let delay = Topology.latency t.topo src dst +. verdict.Faults.extra_delay in
      if t.shard_of.(dst) <> t.shard then
        (* Cross-shard: hand the message to the deployment's outbox
           rather than this engine. The lookahead bound guarantees
           [deliver_at] is still in the destination shard's future, and
           the outbox drain gives the merge a canonical total order. *)
        t.remote ~deliver_at:(Mortar_sim.Engine.now t.engine +. delay) ~src ~dst ~traffic payload
      else
        ignore
          (* lint: allow D9 the deferred delivery closure IS the in-flight message *)
          (Mortar_sim.Engine.schedule t.engine ~after:delay (fun () ->
               deliver_msg t ~src ~dst ~traffic payload))
    end
  end

let bytes_series t traffic = t.bytes.(slot traffic)

let total_bytes_of t traffic =
  List.fold_left
    (fun acc (r : Series.row) -> acc +. r.sum)
    0.0
    (Series.rows (bytes_series t traffic))

let total_bytes t = List.fold_left (fun acc c -> acc +. total_bytes_of t c) 0.0 all_traffic

let messages_sent t = t.sent

let messages_delivered t = t.delivered
