(* The three benchmark workloads. Each one builds its deployment from
   the seed through the program's public functions, timing every setup
   phase through [env.span], and reports every result delivery to the
   ledger through [env.deliver]. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Query = Mortar_core.Query
module Value = Mortar_core.Value
module Window = Mortar_core.Window
module Op = Mortar_core.Op
module Topology = Mortar_net.Topology
module Registry = Mortar_plan.Registry
module Place = Mortar_plan.Place
module Spec = Mortar_plan.Spec
module Rng = Mortar_util.Rng
module Mlq = Mortar_experiments.Mlq
module Sketch = Mortar_experiments.Sketch
module Cm = Mortar_sketch.Count_min
module Hll = Mortar_sketch.Hll
module Agms = Mortar_sketch.Agms

type env = {
  span : 'a. string -> (unit -> 'a) -> 'a;
      (** Time [f] as the named phase (summed per name); a span too when
          tracing. *)
  deliver : Ledger.emission -> unit;
}

type inst = {
  d : D.t;
  horizon : float; (* virtual end of the run *)
  window : float;
  steady_lo : float;
      (* steady interval: the bandwidth's, and the ledger scores the
         windows ending inside it, so it stops early enough for the last
         of them to deliver before [horizon] *)
  steady_hi : float;
  queries : string list;
  live : string -> int -> int; (* contributors expected per (query, bucket) *)
  check : unit -> string list; (* output-check failures, after the run *)
  physical : int;
  replans : unit -> int;
}

type t = {
  name : string;
  setup : env -> seed:int -> inst;
  ops : Op.spec list; (* the operators the workload installs *)
  fanout : int; (* children per aggregation node (the tree bf) *)
  sample : int -> Value.t; (* k-th raw value, as the operator sees it *)
}

(* Add one output-check failure to [bad]. *)
let report bad fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt

(* Liveness sampling every [epoch] from [from]: hosts down for
   [sustained] seconds are reported once, in one batch. *)
let detector d ~from ~until ~epoch ~sustained on_dead =
  let n = D.hosts d in
  let first_down = Hashtbl.create 64 and reported = Hashtbl.create 64 in
  let sample now =
    let up = Array.make n false in
    List.iter (fun h -> up.(h) <- true) (D.up_hosts d);
    let batch = ref [] in
    for h = n - 1 downto 0 do
      if up.(h) then Hashtbl.remove first_down h
      else
        match Hashtbl.find_opt first_down h with
        | None -> Hashtbl.replace first_down h now
        | Some t0 ->
          if now -. t0 >= sustained && not (Hashtbl.mem reported h) then begin
            Hashtbl.replace reported h ();
            batch := h :: !batch
          end
    done;
    if !batch <> [] then on_dead !batch
  in
  let t = ref from in
  while !t < until do
    let now = !t in
    D.at d now (fun () -> sample now);
    t := !t +. epoch
  done

(* Every sensor of the Sum workloads sends 1 once per window, so a Sum
   equals its count. The exception is an incarnation's first window
   (slot 0), open while the install was still spreading: a host
   installed after its tick joins with a boundary summary, counted with
   value 0, so there the Sum may only fall short of the count. *)
let sum_ok ~slot value count =
  match Value.to_float_opt value with
  | Some v -> if slot >= 1 then v = float_of_int count else v <= float_of_int count
  | None -> false

(* ------------------------------------------------------------------ *)
(* agg-10k: the ROADMAP anchor round. Every host feeds a 1 Hz sensor
   into one syncless Sum over 1 s tumbling windows, aggregated up a
   random bf-32, degree-4 tree set to host 0. No faults. *)

let agg =
  (* Results come about 3 s after their window ends: the windows ending
     at 4..8 are scored, the one ending at 9 would deliver after 12. *)
  let hosts = 10_000 and install_at = 1.0 and steady_lo = 4.0 in
  let setup env ~seed =
    let topo =
      env.span "setup.topology" (fun () -> Topology.transit_stub (Rng.create (seed * 7919)) ~hosts ())
    in
    let d = env.span "setup.deployment" (fun () -> D.create_sharded ~seed ~domains:1 topo) in
    (* A random tree set needs no coordinates: the phase is empty here. *)
    env.span "setup.coords" (fun () -> ());
    let treeset =
      env.span "setup.overlay" (fun () ->
          D.plan_random d ~bf:32 ~d:4 ~root:0 ~nodes:(Array.init (hosts - 1) (fun i -> i + 1)) ())
    in
    let meta =
      env.span "setup.plan" (fun () ->
          Query.make_meta ~name:"agg" ~source:"ones" ~op:Op.Sum ~window:(Window.tumbling 1.0)
            ~mode:Query.Syncless ~root:0 ~degree:4 ~total_nodes:hosts ~aggregate:true ())
    in
    let bad = ref [] in
    env.span "setup.install" (fun () ->
        for i = 0 to hosts - 1 do
          D.sensor d ~node:i ~stream:"ones" ~period:1.0 (fun _ -> Value.Int 1)
        done;
        Peer.on_result (D.peer d 0) (fun (r : Peer.result) ->
            if not (sum_ok ~slot:r.slot r.value r.count) then
              report bad "agg: slot %d value %s <> count %d" r.slot (Value.show r.value) r.count;
            if r.count > hosts then report bad "agg: count %d > %d hosts" r.count hosts;
            env.deliver
              { Ledger.query = "agg"; base = install_at; slot = r.slot; count = r.count; age = r.age;
                at = D.now d });
        D.at d install_at (fun () -> Peer.install_query (D.peer d 0) meta treeset));
    {
      d;
      horizon = 12.0;
      window = 1.0;
      steady_lo;
      steady_hi = 9.0;
      queries = [ "agg" ];
      live = (fun _ _ -> hosts);
      check = (fun () -> List.rev !bad);
      physical = 1;
      replans = (fun () -> 0);
    }
  in
  { name = "agg-10k"; setup; ops = [ Op.Sum ]; fanout = 32; sample = (fun _ -> Value.Int 1) }

(* ------------------------------------------------------------------ *)
(* mlq-replan: the shared-planner workload at 4,000 hosts. 250 Zipf
   logical Sum queries over stub populations collapse onto far fewer
   physical tree sets; the busiest stub is killed and the failure
   detector hands the sustained loss to Registry.handle_loss. *)

let mlq =
  let q = 250 in
  let setup env ~seed =
    let p = { (Mlq.params ~quick:false) with Mlq.hosts = 4000 } in
    let topo =
      env.span "setup.topology" (fun () ->
          Topology.transit_stub (Rng.create (seed * 7919)) ~transits:p.transits ~stubs:p.stubs
            ~hosts:p.hosts ())
    in
    let d = env.span "setup.deployment" (fun () -> D.create_sharded ~seed ~domains:1 topo) in
    env.span "setup.coords" (fun () -> D.converge_coordinates d ());
    let specs =
      env.span "setup.install" (fun () ->
          let specs = Mlq.gen_specs p topo q in
          Mlq.attach_sensors d specs;
          specs)
    in
    (* The planner builds the tree sets itself (inside setup.plan); the
       overlay phase is the placement context it builds them from. *)
    let ctx =
      env.span "setup.overlay" (fun () ->
          Place.ctx ~topo ~coords:(D.coordinates d) ~bf:p.bf ~degree:p.degree ~candidates:3 ~seed ())
    in
    let reg, actions =
      env.span "setup.plan" (fun () ->
          let reg = Registry.create ~ctx () in
          (reg, Registry.add_batch reg specs))
    in
    let st = { Mlq.d; specs; sink = Mlq.sink_for []; reg = Some reg } in
    (* Install instants per physical query, newest first: a delivery's
       slots are relative to the incarnation current when its root
       emitted it. *)
    let bases = Hashtbl.create 128 in
    let installed phys at =
      Hashtbl.replace bases phys (at :: Option.value (Hashtbl.find_opt bases phys) ~default:[])
    in
    let base_at phys t =
      let rec pick = function
        | [ b ] -> b
        | b :: rest -> if b <= t then b else pick rest
        | [] -> nan
      in
      pick (Option.value (Hashtbl.find_opt bases phys) ~default:[])
    in
    let note_action at = function
      | Registry.Install { phys; _ } | Registry.Replan { phys; _ } -> installed phys at
      | Registry.Update_fanout _ | Registry.Remove _ -> ()
    in
    let by_name = Hashtbl.create 256 and first_base = Hashtbl.create 256 in
    let bad = ref [] in
    let victims, dead =
      env.span "setup.install" (fun () ->
          let stub = Mlq.busiest_stub p topo specs in
          let protect = Hashtbl.create 256 in
          List.iter (fun (_, _, root) -> Hashtbl.replace protect root ()) (Registry.mapping reg);
          List.iter (fun (s : Spec.t) -> Hashtbl.replace protect s.Spec.subscriber ()) specs;
          let victims =
            List.filter (fun h -> not (Hashtbl.mem protect h)) (D.stub_hosts d stub)
            |> List.sort compare
          in
          let dead = Array.make p.hosts false in
          List.iter (fun h -> dead.(h) <- true) victims;
          (victims, dead))
    in
    env.span "setup.install" (fun () ->
        let n = List.length actions in
        List.iteri
          (fun i a ->
            let at = p.install_from +. (p.install_span *. float_of_int i /. float_of_int (max 1 n)) in
            note_action at a;
            Mlq.apply_install st at a)
          actions;
        let phys_of = Hashtbl.create 256 and root_of = Hashtbl.create 128 in
        List.iter
          (fun (name, phys, root) ->
            Hashtbl.replace phys_of name phys;
            Hashtbl.replace root_of phys root)
          (Registry.mapping reg);
        let at_root = Hashtbl.create 64 and remote = Hashtbl.create 256 in
        let push tbl h v =
          Hashtbl.replace tbl h (v :: Option.value (Hashtbl.find_opt tbl h) ~default:[])
        in
        List.iter
          (fun (s : Spec.t) ->
            let phys = Hashtbl.find phys_of s.Spec.name in
            let root = Hashtbl.find root_of phys in
            let survivors =
              Array.fold_left (fun acc h -> if dead.(h) then acc else acc + 1) 0 s.Spec.publishers
            in
            Hashtbl.replace by_name s.Spec.name (Array.length s.Spec.publishers, survivors);
            Hashtbl.replace first_base s.Spec.name (base_at phys 0.0);
            push (if s.Spec.subscriber = root then at_root else remote) s.Spec.subscriber
              (phys, s.Spec.name))
          specs;
        let record name ~phys ~emitted ~slot ~count ~age value =
          let all, survivors = Hashtbl.find by_name name in
          let base = base_at phys emitted in
          let start = base +. (float_of_int slot *. 1.0) in
          let limit = if start >= p.kill_at then survivors else all in
          if count > limit then
            report bad "mlq: %s slot %d count %d > %d live publishers" name slot count limit;
          if not (sum_ok ~slot value count) then
            report bad "mlq: %s slot %d value %s <> count %d" name slot (Value.show value) count;
          env.deliver { Ledger.query = name; base; slot; count; age; at = D.now d }
        in
        let sorted tbl = Hashtbl.fold (fun h v acc -> (h, v) :: acc) tbl [] |> List.sort compare in
        List.iter
          (fun (h, pairs) ->
            Peer.on_result (D.peer d h) (fun (r : Peer.result) ->
                List.iter
                  (fun (phys, name) ->
                    if r.query = phys then
                      record name ~phys ~emitted:(D.now d) ~slot:r.slot ~count:r.count ~age:r.age
                        r.value)
                  pairs))
          (sorted at_root);
        List.iter
          (fun (h, pairs) ->
            Peer.on_remote_result (D.peer d h) (fun (rr : Peer.remote_result) ->
                List.iter
                  (fun (phys, name) ->
                    if rr.r_query = phys then
                      record name ~phys
                        ~emitted:(D.now d -. Topology.latency topo rr.r_from h)
                        ~slot:rr.r_slot ~count:rr.r_count ~age:rr.r_age rr.r_value)
                  pairs))
          (sorted remote);
        D.at d p.kill_at (fun () -> List.iter (fun h -> D.set_up d h false) victims);
        detector d ~from:(p.kill_at +. p.epoch) ~until:p.churn_end ~epoch:p.epoch
          ~sustained:p.sustained (fun dead ->
            let now = D.now d in
            let actions = env.span "plan.handle_loss" (fun () -> Registry.handle_loss reg ~dead) in
            List.iter
              (fun a ->
                note_action now a;
                Mlq.apply_now st a)
              actions));
    (* A window loses the victims when it ends after the kill. *)
    let live name b =
      let all, survivors = Hashtbl.find by_name name in
      let base = Hashtbl.find first_base name in
      let window_end = base +. float_of_int (b - int_of_float (Float.round base) + 1) in
      if window_end > p.kill_at then survivors else all
    in
    {
      d;
      horizon = p.churn_end;
      window = 1.0;
      steady_lo = p.steady_lo;
      (* Results come up to 3.6 s after their bucket ends: the last
         scored windows end at 29. *)
      steady_hi = 30.0;
      queries = List.map (fun (s : Spec.t) -> s.Spec.name) specs;
      live;
      check = (fun () -> List.rev !bad);
      physical = Registry.physical_count reg;
      replans = (fun () -> Registry.replans reg);
    }
  in
  { name = "mlq-replan"; setup; ops = [ Op.Sum ]; fanout = 16; sample = (fun _ -> Value.Int 1) }

(* ------------------------------------------------------------------ *)
(* sketch-churn: the sketch experiment's sketch side at full-scale
   sketch parameters and 500 hosts, under its composed churn. *)

let sketch_params = { (Sketch.params ~quick:false) with Sketch.hosts = 500 }

let sketch_ops (p : Sketch.params) =
  [
    ("scm", Op.Sketch_count_min { depth = p.cm_depth; width = p.cm_width; seed = p.sk_seed });
    ("shll", Op.Sketch_hll { b = p.hll_b; seed = p.sk_seed });
    ("sagms", Op.Sketch_agms { rows = p.agms_rows; cols = p.agms_cols; seed = p.sk_seed });
  ]

(* The projected value [Sketch.project "v"] hands the operators. *)
let sketch_value cdf ~host ~k = Value.Record [ ("k", Value.Int (Sketch.draw_value cdf ~host ~k)) ]

let sketch =
  let p = sketch_params in
  let root = 0 in
  (* Scored windows are the three that close inside the churn interval
     [10, 36): they close at 17, 25 and 33 (buckets 1..3, whose nominal
     ends are 16, 24 and 32), and a window's results come at most the
     eviction cap (7.25 s) after its close. The run stops before the
     next close at 41, whose window could only be cut short. *)
  let steady_lo = 2.0 *. p.window and steady_hi = 33.0 and horizon = 40.5 in
  let setup env ~seed =
    let topo =
      env.span "setup.topology" (fun () ->
          Topology.transit_stub (Rng.create (seed * 7919)) ~transits:p.transits ~stubs:p.stubs
            ~hosts:p.hosts ())
    in
    let d = env.span "setup.deployment" (fun () -> D.create_sharded ~seed ~domains:1 topo) in
    env.span "setup.coords" (fun () -> D.converge_coordinates d ());
    let treeset =
      env.span "setup.overlay" (fun () ->
          D.plan d ~bf:p.bf ~d:p.degree ~root ~nodes:(Array.init (p.hosts - 1) (fun i -> i + 1)) ())
    in
    let metas =
      env.span "setup.plan" (fun () ->
          List.map
            (fun (name, op) ->
              Query.make_meta ~name ~source:"metric" ~pre:(Sketch.project "v") ~op
                ~window:(Window.tumbling p.window) ~root ~degree:p.degree ~total_nodes:p.hosts ())
            (sketch_ops p))
    in
    (* Windows are [install_at + w * window, ...). The generator counts
       what it injects into each, and per query and host the k range
       injected while the query was installed there, so that the checks
       can recompute a window's exact answers. *)
    let nwin = int_of_float (Float.ceil ((horizon -. p.install_at) /. p.window)) in
    let nq = List.length metas in
    let injected = Array.make nwin 0 in
    let counted = Array.make_matrix nq nwin 0 in
    let kmin = Array.init nq (fun _ -> Array.make_matrix nwin p.hosts max_int) in
    let kmax = Array.init nq (fun _ -> Array.make_matrix nwin p.hosts min_int) in
    let names = Array.of_list (List.map (fun (m : Query.meta) -> m.name) metas) in
    let qindex name =
      let rec go i = if i >= nq then None else if names.(i) = name then Some i else go (i + 1) in
      go 0
    in
    let win_of t = int_of_float (Float.floor ((t -. p.install_at) /. p.window)) in
    let down = ref [] (* (host, from, until) *) in
    let results = ref [] in
    let cdf = Sketch.zipf_cdf p.domain in
    env.span "setup.install" (fun () ->
        for h = 0 to p.hosts - 1 do
          D.sensor d ~node:h ~stream:"metric" ~period:p.period (fun k ->
              let w = win_of (D.now d) in
              if w >= 0 && w < nwin then begin
                injected.(w) <- injected.(w) + 1;
                for q = 0 to nq - 1 do
                  if Peer.has_query (D.peer d h) names.(q) then begin
                    counted.(q).(w) <- counted.(q).(w) + 1;
                    if k < kmin.(q).(w).(h) then kmin.(q).(w).(h) <- k;
                    if k > kmax.(q).(w).(h) then kmax.(q).(w).(h) <- k
                  end
                done
              end;
              Value.Record
                [
                  ("id", Value.Int ((h * 1_000_000) + k));
                  ("v", Value.Int (Sketch.draw_value cdf ~host:h ~k));
                ])
        done;
        Peer.on_result (D.peer d root) (fun (r : Peer.result) ->
            results := (r.query, r.slot, r.count, r.value) :: !results;
            env.deliver
              { Ledger.query = r.query; base = p.install_at; slot = r.slot; count = r.count;
                age = r.age; at = D.now d });
        List.iter
          (fun meta -> D.at d p.install_at (fun () -> Peer.install_query (D.peer d root) meta treeset))
          metas;
        let faults =
          D.composed_churn d ~rng:(Rng.create (31337 + seed)) ~from:p.churn_from ~until:p.churn_until
            ~protect:[ root ] ~churn_period:3.0 ~churn_kills:2 ~down_min:2.0 ~down_max:5.0
            ~burst_period:5.0 ~burst_len:2.5 ~kill_period:8.0 ~kill_fraction:0.25 ~kill_len:3.0 ()
        in
        D.schedule_faults d faults;
        (* Crash victims, for the live-contributor counts: correlated
           kills draw theirs when they fire, so read them just after. *)
        List.iter
          (function
            | D.Crash_recover { node; at; recover_at } -> down := (node, at, recover_at) :: !down
            | D.Correlated_crash { stub; at; recover_at; _ } ->
              D.at d (at +. 1e-6) (fun () ->
                  List.iter
                    (fun h -> if not (List.mem h (D.up_hosts d)) then down := (h, at, recover_at) :: !down)
                    (D.stub_hosts d stub))
            | _ -> ())
          faults);
    let window_span b =
      let lo = p.install_at +. (float_of_int b *. p.window) in
      (lo, lo +. p.window)
    in
    let down_in b =
      let lo, hi = window_span b in
      List.filter (fun (_, a, r) -> a < hi && r > lo) !down
      |> List.map (fun (h, _, _) -> h)
      |> List.sort_uniq compare
    in
    let live _ b = p.hosts - List.length (down_in b) in
    (* The exact multiset a window fed query [q], by frequency. *)
    let exact_freq q b =
      let freq = Hashtbl.create 4096 in
      for h = 0 to p.hosts - 1 do
        for k = kmin.(q).(b).(h) to kmax.(q).(b).(h) do
          let v = Sketch.draw_value cdf ~host:h ~k in
          Hashtbl.replace freq v (1 + Option.value (Hashtbl.find_opt freq v) ~default:0)
        done
      done;
      freq
    in
    let check () =
      let bad = ref [] in
      let report fmt = report bad fmt in
      List.iter
        (fun (query, slot, count, value) ->
          match (qindex query, value) with
          | None, _ -> report "sketch: result for unknown query %s" query
          | Some _, _ when slot < 0 || slot >= nwin -> report "sketch: %s slot %d out of range" query slot
          | Some q, value -> (
            (* A window every host reported while none was down: its
               input is exactly what the generator counted. *)
            let full = count = p.hosts && down_in slot = [] in
            let within name est exact =
              let err = Float.abs (est -. exact) /. exact in
              if err > p.eps then
                report "sketch: window %d %s %g vs exact %g (error %.4f > eps %g)" slot name est
                  exact err p.eps
            in
            match value with
            | Value.Str packed ->
              let total = Cm.total (Cm.of_string packed) in
              if total > injected.(slot) then
                report "sketch: window %d Count-Min total %d > %d injected" slot total injected.(slot);
              if full && total <> counted.(q).(slot) then
                report "sketch: full window %d Count-Min total %d <> %d counted" slot total
                  counted.(q).(slot)
            | Value.Float est when full -> (
              (* Reference sketches fed the window's exact multiset: the
                 in-network merge must reproduce them bit for bit. HLL
                 must also be within eps of the exact distinct count;
                 AGMS at 5x16 is not that accurate, so its estimate is
                 held to the reference sketch alone. *)
              let freq = exact_freq q slot in
              let key v = Op.sketch_key (Value.Record [ ("k", Value.Int v) ]) in
              let same name reference =
                if est <> reference then
                  report "sketch: window %d %s %g <> %g from a reference sketch" slot name est
                    reference
              in
              match List.assoc query (sketch_ops p) with
              | Op.Sketch_hll { b; seed } ->
                let s = Hll.create ~b ~seed in
                Hashtbl.iter (fun v _ -> Hll.add s ~key:(key v)) freq;
                same "HLL" (Hll.estimate s);
                within "distinct count" est (float_of_int (Hashtbl.length freq))
              | Op.Sketch_agms { rows; cols; seed } ->
                let s = Agms.create ~rows ~cols ~seed in
                Hashtbl.iter (fun v c -> Agms.add s ~key:(key v) ~w:c) freq;
                same "AGMS" (Agms.second_moment s)
              | _ -> report "sketch: %s window %d unexpected float result" query slot)
            | Value.Float _ -> ()
            | v -> report "sketch: %s window %d unexpected value %s" query slot (Value.show v)))
        (List.rev !results);
      List.rev !bad
    in
    {
      d;
      horizon;
      window = p.window;
      steady_lo;
      steady_hi;
      queries = List.map fst (sketch_ops p);
      live;
      check;
      physical = 3;
      replans = (fun () -> 0);
    }
  in
  let cdf = Sketch.zipf_cdf p.domain in
  {
    name = "sketch-churn";
    setup;
    ops = List.map snd (sketch_ops p);
    fanout = p.bf;
    sample = (fun k -> sketch_value cdf ~host:(k mod p.hosts) ~k:(k / p.hosts));
  }

let all = [ agg; mlq; sketch ]

let find name = List.find_opt (fun w -> w.name = name) all
