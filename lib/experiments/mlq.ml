(* Multi-query workload (beyond the paper's single-query figures): the
   planner gate.

   N concurrent administrative queries are drawn over a transit-stub
   population: each query aggregates one machine-metric stream over one
   stub's hosts (a Zipf-skewed draw, so popular (stub, stream) combos
   repeat — the paper's wide-scale setting where many administrators ask
   overlapping questions), with results delivered to a subscriber drawn
   from the publisher set.

   Two modes run the identical workload:

   - naive: today's Mortar — one private network-aware tree set per
     query, rooted at its subscriber;
   - shared: the lib/plan multi-query planner — queries with the same
     canonical (publishers, op, window) key share one physical tree set
     placed cost-based (latency-medoid candidate roots, per-node
     operator budget, local-search pass), and the root fans finished
     results out to each subscriber ({!Mortar_core.Msg.Result_fwd}).

   Figure: aggregate in-network bandwidth (all traffic classes) and
   delivered completeness versus query count, planned vs naive. A second
   phase kills one stub mid-run and compares the planner's churn-driven
   incremental re-plan (surviving roots reused) against a no-replan
   control on delivered completeness over the surviving publishers.

   CI greps the "mlq gate:" line: at the top query count the planner
   must beat naive on bandwidth without losing completeness. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Query = Mortar_core.Query
module Window = Mortar_core.Window
module Topology = Mortar_net.Topology
module Spec = Mortar_plan.Spec
module Registry = Mortar_plan.Registry
module Rng = Mortar_util.Rng

type params = {
  hosts : int;
  transits : int;
  stubs : int;
  bf : int;
  degree : int;
  ladder : int list;
  streams : string list;
  install_from : float;
  install_span : float;
  steady_lo : float;
  steady_hi : float;
  run_end : float;
  (* churn / re-plan phase *)
  churn_q : int;
  pre_lo : float;
  pre_hi : float;
  kill_at : float;
  epoch : float;
  sustained : float;
  degr_lo : float;
  degr_hi : float;
  post_lo : float;
  post_hi : float;
  churn_end : float;
}

let params ~quick =
  if quick then
    {
      hosts = 400;
      transits = 4;
      stubs = 8;
      bf = 8;
      degree = 2;
      ladder = [ 12; 36 ];
      streams = [ "cpu"; "mem" ];
      install_from = 1.0;
      install_span = 1.0;
      steady_lo = 6.0;
      steady_hi = 10.0;
      run_end = 14.0;
      churn_q = 36;
      pre_lo = 5.0;
      pre_hi = 8.0;
      kill_at = 9.0;
      epoch = 1.0;
      sustained = 3.0;
      degr_lo = 10.0;
      degr_hi = 12.0;
      post_lo = 16.0;
      post_hi = 20.0;
      churn_end = 24.0;
    }
  else
    {
      hosts = 10_000;
      transits = 8;
      stubs = 34;
      bf = 16;
      degree = 2;
      ladder = [ 50; 100; 250; 500 ];
      streams = [ "cpu"; "mem"; "net" ];
      install_from = 1.0;
      install_span = 2.0;
      steady_lo = 8.0;
      steady_hi = 16.0;
      run_end = 20.0;
      churn_q = 100;
      pre_lo = 6.0;
      pre_hi = 11.0;
      kill_at = 12.0;
      epoch = 2.0;
      sustained = 6.0;
      degr_lo = 13.0;
      degr_hi = 17.0;
      post_lo = 22.0;
      post_hi = 30.0;
      churn_end = 34.0;
    }

(* ------------------------------------------------------------------ *)
(* Workload generation: a pure function of (params, topology, q).      *)

let stub_populations p topo =
  let by_stub = Array.make p.stubs [] in
  for h = p.hosts - 1 downto 0 do
    let s = Topology.stub_of topo h in
    by_stub.(s) <- h :: by_stub.(s)
  done;
  by_stub

(* Zipf(1) over the (stub, stream) combos: combo [i] has weight
   1/(i+1), so a handful of popular questions dominate and sharing
   opportunities grow with q. *)
let gen_specs p topo q =
  let rng = Rng.create (7207 + (13 * q)) in
  let by_stub = stub_populations p topo in
  let streams = Array.of_list p.streams in
  let ncombos = p.stubs * Array.length streams in
  let weights = Array.init ncombos (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let draw_combo () =
    let x = Rng.float rng total in
    let acc = ref 0.0 and hit = ref (ncombos - 1) and i = ref 0 in
    while !i < ncombos do
      acc := !acc +. weights.(!i);
      if x < !acc then begin
        hit := !i;
        i := ncombos
      end
      else incr i
    done;
    !hit
  in
  List.init q (fun i ->
      let c = draw_combo () in
      let stub = c mod p.stubs and stream = streams.(c / p.stubs) in
      let publishers = Array.of_list by_stub.(stub) in
      let subscriber = publishers.(Rng.int rng (Array.length publishers)) in
      Spec.make
        ~name:(Printf.sprintf "q%03d" i)
        ~source:stream ~op:Mortar_core.Op.Sum ~window:1.0 ~publishers ~subscriber)

(* One 1 Hz [Ones] sensor group per stream, over the hosts that publish
   it, streams and hosts in ascending order. *)
let sensors_of specs =
  List.sort_uniq compare (List.map (fun (s : Spec.t) -> s.Spec.source) specs)
  |> List.map (fun stream ->
         let hosts =
           List.concat_map
             (fun (s : Spec.t) ->
               if s.Spec.source = stream then Array.to_list s.Spec.publishers else [])
             specs
           |> List.sort_uniq compare
         in
         { Scenario.stream; period = 1.0; hosts = Only hosts; value = Ones })

let attach_sensors d specs = Scenario.attach_sensors d ~queries:[] (sensors_of specs)

(* ------------------------------------------------------------------ *)
(* Delivered results go to a {!Ledger}, one table per logical query at
   its point of consumption (the subscriber), created up-front and then
   mutated only from that one delivery host.

   Windows are keyed by their absolute birth instant, recovered at the
   delivery site as [round (now - age)]: every sensor fires at integer
   true instants on synchronized clocks, so a result's constituents
   share one integer birth time and [now - age] lands on it (delivery
   and fan-out latencies are well under half a window). Peer-local slot
   numbers would not do — they restart from zero when a churn re-plan
   re-installs the physical query, so the two incarnations' slots are
   not comparable. *)

let sink_for specs : unit Ledger.t =
  Ledger.create (List.map (fun (s : Spec.t) -> s.Spec.name) specs)

let deliver d sink name ~age ~count =
  let now = D.now d in
  Ledger.record sink ~query:name ~bucket:(int_of_float (Float.round (now -. age))) ~count ~at:now ()

(* Delivered completeness of the windows due in [lo, hi) — the window
   born at integer w (1 s windows) is due around w + 1. [denom] gives each
   spec's expected contributor count. *)
let score sink specs ~denom ~lo ~hi =
  Ledger.completeness sink
    ~queries:(List.map (fun (s : Spec.t) -> (s.Spec.name, fun _ -> denom s)) specs)
    (Ledger.Buckets (int_of_float lo - 1, int_of_float hi - 2))

(* Kept under this name because perfbench/main.ml calls it. *)
let mbps = D.mbps

(* ------------------------------------------------------------------ *)
(* One deployment running one mode at one query count.                 *)

type setup = {
  d : D.t;
  specs : Spec.t list;
  sink : unit Ledger.t;
  reg : Registry.t option; (* Some in shared mode *)
}

(* Fires synchronously from inside an engine callback (re-plan path). *)
let apply_now st = function
  | Registry.Install { phys; root; meta; treeset; subscribers }
  | Registry.Replan { phys; root; meta; treeset; subscribers; _ } ->
    Peer.install_query (D.peer st.d root) meta treeset;
    Peer.set_result_forwards (D.peer st.d root) ~query:phys subscribers
  | Registry.Update_fanout { phys; root; subscribers } ->
    Peer.set_result_forwards (D.peer st.d root) ~query:phys subscribers
  | Registry.Remove { phys; root } ->
    Peer.set_result_forwards (D.peer st.d root) ~query:phys [];
    if Peer.plan_cached (D.peer st.d root) ~name:phys then
      Peer.remove_query (D.peer st.d root) ~name:phys

let apply_install st at_time a = D.at st.d at_time (fun () -> apply_now st a)

let setup ~mode ~q p =
  let seed = 4242 + q in
  (* The peer-count platform, carrying the workload's own sensors and
     trees. *)
  let s = Scenario.peer_count ~seed ~hosts:p.hosts in
  let s = { s with topology = { s.topology with transits = p.transits; stubs = p.stubs } } in
  let specs = gen_specs p (Scenario.topology s) q in
  let sink = sink_for specs in
  let s = { s with tree_sets = []; sensors = sensors_of specs; queries = [] } in
  let install_at i n =
    p.install_from +. (p.install_span *. float_of_int i /. float_of_int (max 1 n))
  in
  match mode with
  | `Naive ->
    (* One private network-aware tree set per query, rooted at its
       subscriber, installed on the staggered schedule. *)
    let tree_set (sp : Spec.t) =
      { Scenario.root = sp.subscriber; members = Only (Array.to_list sp.publishers); bf = p.bf;
        degree = p.degree; shape = Planned `Cluster_shuffle }
    in
    let install i (sp : Spec.t) =
      let meta =
        Query.make_meta ~name:sp.name ~source:sp.source ~op:sp.op
          ~window:(Window.tumbling sp.window) ~root:sp.subscriber
          ~total_nodes:(Array.length sp.publishers) ()
      in
      { Scenario.meta; tree_set = i; at = install_at i (List.length specs) }
    in
    let { Scenario.d; _ } =
      Scenario.build
        { s with tree_sets = List.map tree_set specs; queries = List.mapi install specs }
    in
    List.iter
      (fun (sp : Spec.t) ->
        Peer.on_result (D.peer d sp.subscriber) (fun (r : Peer.result) ->
            if r.query = sp.name then deliver d sink sp.name ~age:r.age ~count:r.count))
      specs;
    { d; specs; sink; reg = None }
  | `Shared ->
    (* The planner places shared tree sets; its actions install them. *)
    let { Scenario.d; registry; _ } =
      Scenario.build { s with planner = Some { bf = p.bf; degree = p.degree; seed } }
    in
    let reg = Option.get registry in
    let actions = Registry.add_batch reg specs in
    let st = { d; specs; sink; reg = Some reg } in
    let n = List.length actions in
    List.iteri (fun i a -> apply_install st (install_at i n) a) actions;
    (* Wire delivery sinks: the physical root records for a co-located
       subscriber via on_result, any other subscriber records through the
       Result_fwd remote handler. *)
    let subscriber = Hashtbl.create 64 in
    List.iter (fun (sp : Spec.t) -> Hashtbl.replace subscriber sp.name sp.subscriber) specs;
    List.iter
      (fun (name, phys, root) ->
        let h = Hashtbl.find subscriber name in
        if h = root then
          Peer.on_result (D.peer d h) (fun (r : Peer.result) ->
              if r.query = phys then deliver d sink name ~age:r.age ~count:r.count)
        else
          Peer.on_remote_result (D.peer d h) (fun (rr : Peer.remote_result) ->
              if rr.r_query = phys then deliver d sink name ~age:rr.r_age ~count:rr.r_count))
      (Registry.mapping reg);
    st

(* ------------------------------------------------------------------ *)
(* Figure phase.                                                       *)

type point = { mbps : float; compl : float; physical : int }

let run_point ~mode ~q p =
  let st = setup ~mode ~q p in
  D.run_until st.d p.run_end;
  {
    mbps = mbps st.d p.steady_lo p.steady_hi;
    compl =
      score st.sink st.specs
        ~denom:(fun s -> Array.length s.Spec.publishers)
        ~lo:p.steady_lo ~hi:p.steady_hi;
    physical = (match st.reg with Some r -> Registry.physical_count r | None -> q);
  }

(* ------------------------------------------------------------------ *)
(* Churn / re-plan phase: kill one stub, compare incremental re-plan
   against a no-replan control (both shared mode, same workload).      *)

type churn_row = { pre : float; degraded : float; post : float; replans : int }

let busiest_stub p topo specs =
  let load = Array.make p.stubs 0 in
  List.iter
    (fun (s : Spec.t) ->
      let stub = Topology.stub_of topo s.Spec.publishers.(0) in
      load.(stub) <- load.(stub) + 1)
    specs;
  let best = ref 0 in
  Array.iteri (fun i n -> if n > load.(!best) then best := i) load;
  !best

let run_churn ~replan ~q p =
  let st = setup ~mode:`Shared ~q p in
  let reg = Option.get st.reg in
  let topo = D.topology st.d in
  let stub = busiest_stub p topo st.specs in
  let protect = Hashtbl.create 256 in
  List.iter (fun (_, _, root) -> Hashtbl.replace protect root ()) (Registry.mapping reg);
  List.iter (fun (s : Spec.t) -> Hashtbl.replace protect s.Spec.subscriber ()) st.specs;
  let victims =
    List.filter (fun h -> not (Hashtbl.mem protect h)) (D.stub_hosts st.d stub)
    |> List.sort compare
  in
  let victim_set = Hashtbl.create (List.length victims) in
  List.iter (fun h -> Hashtbl.replace victim_set h ()) victims;
  D.at st.d p.kill_at (fun () -> List.iter (fun h -> D.set_up st.d h false) victims);
  (* Failure detection: sample liveness every epoch; hosts continuously
     down for [sustained] seconds are reported dead to the registry once,
     in one batch, and the re-plan actions are applied immediately. *)
  let first_down = Hashtbl.create 256 and reported = Hashtbl.create 256 in
  let sample now =
    let up = Hashtbl.create p.hosts in
    List.iter (fun h -> Hashtbl.replace up h ()) (D.up_hosts st.d);
    let dead_batch = ref [] in
    for h = p.hosts - 1 downto 0 do
      if Hashtbl.mem up h then Hashtbl.remove first_down h
      else
        match Hashtbl.find_opt first_down h with
        | None -> Hashtbl.replace first_down h now
        | Some t0 ->
          if now -. t0 >= p.sustained && not (Hashtbl.mem reported h) then begin
            Hashtbl.replace reported h ();
            dead_batch := h :: !dead_batch
          end
    done;
    if !dead_batch <> [] && replan then
      List.iter (apply_now st) (Registry.handle_loss reg ~dead:!dead_batch)
  in
  let t = ref (p.kill_at +. p.epoch) in
  while !t < p.churn_end do
    let now = !t in
    D.at st.d now (fun () -> sample now);
    t := !t +. p.epoch
  done;
  D.run_until st.d p.churn_end;
  let all s = Array.length s.Spec.publishers in
  let survivors (s : Spec.t) =
    Array.fold_left (fun acc h -> if Hashtbl.mem victim_set h then acc else acc + 1) 0
      s.Spec.publishers
  in
  {
    pre = score st.sink st.specs ~denom:all ~lo:p.pre_lo ~hi:p.pre_hi;
    degraded = score st.sink st.specs ~denom:survivors ~lo:p.degr_lo ~hi:p.degr_hi;
    post = score st.sink st.specs ~denom:survivors ~lo:p.post_lo ~hi:p.post_hi;
    replans = Registry.replans reg;
  }

(* ------------------------------------------------------------------ *)

(* The figure rows: per query count, the naive and shared points of the
   modes [planner] selects (both by default). [queries] replaces the
   ladder with one count. *)
let rows ?planner ?queries p =
  let ladder = match queries with Some q -> [ q ] | None -> p.ladder in
  let runs mode = match planner with None -> true | Some m -> m = mode in
  List.map
    (fun q ->
      let get mode = if runs mode then Some (run_point ~mode ~q p) else None in
      (q, get `Naive, get `Shared))
    ladder

let run ?planner ?queries ~quick () =
  let p = params ~quick in
  let rows = rows ?planner ?queries p in
  Common.table
    ~columns:
      [ "queries"; "physical"; "naive Mb/s"; "planned Mb/s"; "saving"; "naive compl";
        "planned compl" ]
    (fun () ->
      List.map
        (fun (q, naive, shared) ->
          let cell f = function Some pt -> f pt | None -> "-" in
          let saving =
            match (naive, shared) with
            | Some n, Some s when n.mbps > 0.0 -> Common.cell_pct (1.0 -. (s.mbps /. n.mbps))
            | _ -> "-"
          in
          [
            string_of_int q;
            cell (fun pt -> string_of_int pt.physical) shared;
            cell (fun pt -> Common.cell_f pt.mbps) naive;
            cell (fun pt -> Common.cell_f pt.mbps) shared;
            saving;
            cell (fun pt -> Common.cell_pct pt.compl) naive;
            cell (fun pt -> Common.cell_pct pt.compl) shared;
          ])
        rows);
  (* Churn phase: incremental re-plan vs no-replan control. *)
  if planner <> Some `Naive then begin
    let q = Option.value queries ~default:p.churn_q in
    let on = run_churn ~replan:true ~q p in
    let off = run_churn ~replan:false ~q p in
    Printf.printf "\nchurn phase (stub kill at %gs, %d queries, completeness vs survivors):\n"
      p.kill_at q;
    Common.table
      ~columns:[ "replan"; "pre"; "degraded"; "post"; "replans" ]
      (fun () ->
        let row label (r : churn_row) =
          [
            label;
            Common.cell_pct r.pre;
            Common.cell_pct r.degraded;
            Common.cell_pct r.post;
            string_of_int r.replans;
          ]
        in
        [ row "on" on; row "off" off ])
  end;
  (* The CI gate greps this exact line. *)
  (match List.rev rows with
  | (_, Some naive, Some shared) :: _ ->
    let ok = shared.mbps < naive.mbps && shared.compl >= naive.compl -. 0.01 in
    Printf.printf "mlq gate: %s\n" (if ok then "ok" else "FAIL")
  | _ -> ())

let experiment =
  {
    Common.id = "mlq";
    title = "Multi-query planner: shared trees + cost-based placement vs naive per-query";
    paper_claim =
      "beyond the paper: at wide scale many concurrent administrative queries overlap; \
       sharing canonical-key tree sets with cost-based operator placement cuts aggregate \
       in-network bandwidth versus naive per-query trees (increasingly with query count) \
       at no delivered-completeness cost, and churn-driven incremental re-planning \
       restores completeness over survivors after a stub loss";
    run = (fun ~quick -> run ~quick ());
  }

let register () = Common.register experiment
