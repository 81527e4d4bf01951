(* The benchmark harness.

   Two layers, both in this executable:

   1. Bechamel micro-benchmarks — one per figure of the paper's
      evaluation, timing the computational kernel that the figure's
      experiment stresses (tree planning for Fig 17, TS-list merging for
      Figs 9/10, the routing decision for Fig 12, ...).

   2. The figure-regeneration experiments themselves
      (Mortar_experiments) — every table and figure of the evaluation
      section, printed as text tables. Quick mode (the default here) uses
      scaled-down configurations; pass `--full` for paper-scale runs.

   Plus a third, scale-oriented layer:

   3. `--scale` builds 680/2000/10000/100000-host topologies and, for
      each, times topology construction, TS-list inserts, transport
      sends, and a short fig14-style aggregation round (on the sharded
      deployment; `--shards N` sets the domain count), writing the
      numbers as machine-readable JSON (default
      `results/BENCH_CI.json`, not committed; full-scale rows go into
      the append-only history `results/BENCH.jsonl`). This is
      the evidence trail for the multicore sharded engine: the
      10000-host round must beat 3 s of wall time at 8 domains, and the
      100000-host round must complete at full completeness.

   Usage:
     dune exec bench/main.exe                # micro + quick experiments
     dune exec bench/main.exe -- --micro     # micro-benchmarks only
     dune exec bench/main.exe -- --figures   # quick experiments only
     dune exec bench/main.exe -- --full      # micro + full-scale experiments
     dune exec bench/main.exe -- --smoke     # run each kernel once (used by `dune runtest`)
     dune exec bench/main.exe -- --scale [--quick] [--shards N] [--hosts N,N,..]
                                         [--out FILE.json]
*)

open Bechamel
open Toolkit

module Rng = Mortar_util.Rng

(* ------------------------------------------------------------------ *)
(* Kernel fixtures, built once. *)

let fixture_trees =
  lazy
    (let rng = Rng.create 1 in
     let nodes = Array.init 999 (fun i -> i + 1) in
     Array.init 4 (fun _ -> Mortar_overlay.Builder.random_tree rng ~bf:32 ~root:0 ~nodes))

let fixture_coords =
  lazy
    (let rng = Rng.create 2 in
     Array.init 179 (fun _ ->
         [| Rng.uniform rng 0.0 0.1; Rng.uniform rng 0.0 0.1; Rng.uniform rng 0.0 0.1 |]))

let fixture_treeset =
  lazy
    (let rng = Rng.create 3 in
     let nodes = Array.init 679 (fun i -> i + 1) in
     Mortar_overlay.Treeset.random rng ~bf:16 ~d:4 ~root:0 ~nodes)

let fixture_view = lazy (Mortar_core.Query.view_of_treeset (Lazy.force fixture_treeset) 77)

let fixture_routing_state =
  lazy
    (let st =
       Mortar_dht.Routing_state.create ~self:(Mortar_dht.Node_id.hash_host 0) ~leaf_radius:8
     in
     for h = 1 to 679 do
       Mortar_dht.Routing_state.add st (Mortar_dht.Node_id.hash_host h)
     done;
     st)

let fixture_frames =
  lazy
    (let rng = Rng.create 4 in
     List.init 40 (fun i ->
         Mortar_core.Value.Record
           [
             ("x", Mortar_core.Value.Float (float_of_int i));
             ("y", Mortar_core.Value.Float (float_of_int (i * 2)));
             ("rssi", Mortar_core.Value.Float (-40.0 -. Rng.float rng 50.0));
           ]))

(* One host's 8 s sketch window at full-scale sketch parameters: 125
   projected payloads drawn from the sketch experiment's Zipf domain. *)
let fixture_sketch_window =
  lazy
    (let module S = Mortar_experiments.Sketch in
     let p = S.params ~quick:false in
     let cdf = S.zipf_cdf p.S.domain in
     let ops =
       let open Mortar_core.Op in
       List.map compile
         [
           Sketch_count_min { depth = p.S.cm_depth; width = p.S.cm_width; seed = p.S.sk_seed };
           Sketch_hll { b = p.S.hll_b; seed = p.S.sk_seed };
           Sketch_agms { rows = p.S.agms_rows; cols = p.S.agms_cols; seed = p.S.sk_seed };
         ]
     in
     let payloads =
       List.init 125 (fun k ->
           Mortar_core.Value.Record [ ("k", Mortar_core.Value.Int (S.draw_value cdf ~host:1 ~k)) ])
     in
     (ops, payloads))

let fixture_msl =
  {|
loud = select(stream("frames"), mac == "target" && rssi > -90.0)
top3 = topk(loud, k=3, key="rssi") window time 1s 1s
agg  = sum(stream("cpu")) window time 5s 1s mode syncless
|}

(* ------------------------------------------------------------------ *)
(* One kernel per figure. *)

let bench_fig01_connectivity_trial () =
  let trees = Lazy.force fixture_trees in
  let rng = Rng.create 99 in
  Staged.stage (fun () ->
      ignore
        (Mortar_overlay.Connectivity.completeness rng ~trees ~link_failure:0.2
           (Mortar_overlay.Connectivity.Dynamic_striping 4)))

let bench_fig09_ts_list_round () =
  let op = Mortar_core.Op.compile Mortar_core.Op.Sum in
  Staged.stage (fun () ->
      (* The syncless data path: 64 summary inserts into exact-match slots
         followed by eviction — one window's work at a bf-64 node. *)
      let ts = Mortar_core.Ts_list.create ~op () in
      for i = 0 to 63 do
        let index = Mortar_core.Index.of_slot ~slide:1.0 (i mod 4) in
        Mortar_core.Ts_list.insert ts ~now:0.0 ~deadline:1.0
          (Mortar_core.Summary.make ~index ~value:(Mortar_core.Value.Float 1.0) ~count:1 ())
      done;
      ignore (Mortar_core.Ts_list.force_pop ts ~now:2.0))

let bench_fig10_syncless_reindex () =
  Staged.stage (fun () ->
      (* Fig 7's arrival rule: index = (t_ref - age) / slide. *)
      let acc = ref 0 in
      for i = 0 to 999 do
        acc := !acc + Mortar_core.Index.slot ~slide:5.0 (1000.0 -. (float_of_int i *. 0.37))
      done;
      ignore !acc)

let bench_fig11_chunk_plan () =
  let ts = Lazy.force fixture_treeset in
  Staged.stage (fun () -> ignore (Mortar_core.Query.chunk_plan ts ~chunks:16))

let bench_fig12_routing_decision () =
  let view = Lazy.force fixture_view in
  let rng = Rng.create 5 in
  let visited = Mortar_core.Routing.initial_visited view in
  Staged.stage (fun () ->
      ignore
        (Mortar_core.Routing.route ~view
           ~alive:(fun n -> n mod 7 <> 0)
           ~rng ~visited ~arrival_tree:0 ~ttl_down:0 ()))

let bench_fig13_unique_children () =
  let ts = Lazy.force fixture_treeset in
  Staged.stage (fun () -> ignore (Mortar_overlay.Treeset.unique_children ts 17))

let bench_fig14_merge_fold () =
  let op = Mortar_core.Op.compile Mortar_core.Op.Sum in
  Staged.stage (fun () ->
      (* Merging one window's 680 partials at the root. *)
      let acc = ref op.Mortar_core.Op.init in
      for _ = 1 to 680 do
        acc := op.Mortar_core.Op.merge !acc (Mortar_core.Value.Float 1.0)
      done;
      ignore (op.Mortar_core.Op.finalize !acc))

let bench_fig15_engine_round () =
  Staged.stage (fun () ->
      let e = Mortar_sim.Engine.create () in
      for i = 1 to 100 do
        ignore (Mortar_sim.Engine.schedule e ~after:(float_of_int i *. 0.001) (fun () -> ()))
      done;
      Mortar_sim.Engine.run e)

let bench_fig16_dht_next_hop () =
  let st = Lazy.force fixture_routing_state in
  let key = Mortar_dht.Node_id.hash_name "peer-count" in
  Staged.stage (fun () -> ignore (Mortar_dht.Routing_state.next_hop st key))

let bench_fig17_plan_primary () =
  let coords = Lazy.force fixture_coords in
  let rng = Rng.create 6 in
  let nodes = Array.init 178 (fun i -> i + 1) in
  Staged.stage (fun () ->
      ignore (Mortar_overlay.Builder.plan_primary rng ~coords ~bf:16 ~root:0 ~nodes))

let bench_fig17_sibling_shuffle () =
  let coords = Lazy.force fixture_coords in
  let rng = Rng.create 7 in
  let nodes = Array.init 178 (fun i -> i + 1) in
  let primary = Mortar_overlay.Builder.plan_primary rng ~coords ~bf:16 ~root:0 ~nodes in
  Staged.stage (fun () ->
      ignore (Mortar_overlay.Sibling.derive_cluster_shuffle rng ~bf:16 primary))

let bench_fig18_trilat () =
  Mortar_wifi.Wifi.register_trilat ();
  let impl = Mortar_core.Op.compile (Mortar_core.Op.Custom { name = "trilat"; args = [] }) in
  let frames = Lazy.force fixture_frames in
  Staged.stage (fun () ->
      let acc =
        List.fold_left
          (fun acc f -> impl.Mortar_core.Op.merge acc (impl.Mortar_core.Op.lift f))
          impl.Mortar_core.Op.init frames
      in
      ignore (impl.Mortar_core.Op.finalize acc))

let bench_sketch_window_fold () =
  let ops, payloads = Lazy.force fixture_sketch_window in
  Staged.stage (fun () ->
      (* A source's window close: each sketch operator folds the window. *)
      List.iter
        (fun impl -> ignore (Mortar_core.Op.fold impl ~on_fault:ignore Fun.id payloads))
        ops)

let bench_msl_parse () =
  Staged.stage (fun () -> ignore (Mortar_core.Msl.parse fixture_msl))

let kernels =
  [
    ("fig01:connectivity-trial", bench_fig01_connectivity_trial ());
    ("fig09:ts-list-window-round", bench_fig09_ts_list_round ());
    ("fig10:syncless-reindex-x1000", bench_fig10_syncless_reindex ());
    ("fig11:chunk-plan-680", bench_fig11_chunk_plan ());
    ("fig12:routing-decision", bench_fig12_routing_decision ());
    ("fig13:unique-children", bench_fig13_unique_children ());
    ("fig14:merge-fold-680", bench_fig14_merge_fold ());
    ("fig15:engine-100-events", bench_fig15_engine_round ());
    ("fig16:dht-next-hop", bench_fig16_dht_next_hop ());
    ("fig17:plan-primary-179", bench_fig17_plan_primary ());
    ("fig17:sibling-shuffle-179", bench_fig17_sibling_shuffle ());
    ("fig18:trilat-40-frames", bench_fig18_trilat ());
    ("sketch:window-fold-125", bench_sketch_window_fold ());
    ("msl:parse-3-statements", bench_msl_parse ());
  ]

let tests = List.map (fun (name, staged) -> Test.make ~name staged) kernels

(* Smoke mode (`dune runtest`): execute every kernel once, without
   Bechamel's timing loop, so a broken fixture or kernel fails CI in
   milliseconds rather than only under `dune exec bench/main.exe`. *)
let run_smoke () =
  List.iter
    (fun (name, staged) ->
      Staged.unstage staged ();
      Printf.printf "smoke ok %s\n%!" name)
    kernels

let run_micro () =
  print_endline "=== micro-benchmarks (ns per kernel run) ===";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysis = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] -> Printf.printf "%-32s %14.1f ns\n%!" name ns
          | _ -> Printf.printf "%-32s (no estimate)\n%!" name)
        analysis)
    tests

let run_figures ~quick =
  Printf.printf "\n=== figure regeneration (%s mode) ===\n"
    (if quick then "quick" else "full");
  Mortar_experiments.Registry.ensure ();
  Mortar_experiments.Common.run_all ~quick (Mortar_experiments.Common.all ())

(* ------------------------------------------------------------------ *)
(* --scale: wall-clock cost of the simulator's three hot layers at
   paper scale and beyond. All timings go through Bench_clock (the one
   wall-clock module the D1 lint allow-lists); these are coarse-grained
   totals over thousands of operations, not Bechamel territory. *)

module Scale = struct
  module Topology = Mortar_net.Topology
  module Transport = Mortar_net.Transport
  module Engine = Mortar_sim.Engine
  module D = Mortar_emul.Deployment
  module Ledger = Mortar_experiments.Ledger
  module Scenario = Mortar_experiments.Scenario

  type row = {
    hosts : int;
    routers : int;
    shards : int;
    topo_build_s : float;
    ts_insert_ns : float;
    transport_send_ns : float;
    agg_virtual_s : float;
    agg_wall_s : float;
    agg_results : int;
    agg_completeness : float;
  }

  let time f =
    let t0 = Bench_clock.now () in
    let v = f () in
    (v, Bench_clock.now () -. t0)

  (* TS-list cost at a bf-[fanout] aggregation node: summaries from
     [fanout] children land on each of a rotation of windows (the
     exact-match fast path), with periodic eviction. Per-insert ns. *)
  let bench_ts_inserts ~inserts =
    let op = Mortar_core.Op.compile Mortar_core.Op.Sum in
    let ts = Mortar_core.Ts_list.create ~op () in
    let slots = 8 in
    let (), wall =
      time (fun () ->
          for i = 0 to inserts - 1 do
            let index = Mortar_core.Index.of_slot ~slide:1.0 (i mod slots) in
            Mortar_core.Ts_list.insert ts ~now:0.0 ~deadline:1.0
              (Mortar_core.Summary.make ~index ~value:(Mortar_core.Value.Float 1.0)
                 ~count:1 ());
            if (i + 1) mod (slots * 64) = 0 then
              ignore (Mortar_core.Ts_list.force_pop ts ~now:2.0)
          done)
    in
    wall *. 1e9 /. float_of_int inserts

  (* Transport send+deliver cost across random host pairs (keyed, so the
     duplicate-suppression path is exercised too). Per-send ns, including
     the engine's delivery events. *)
  let bench_transport topo ~sends =
    let rng = Rng.create 11 in
    let engine = Engine.create () in
    let transport = Transport.create engine topo ~rng:(Rng.split rng) () in
    let n = Topology.hosts topo in
    let sink = ref 0 in
    for h = 0 to n - 1 do
      Transport.register transport h (fun ~src:_ () -> incr sink)
    done;
    let (), wall =
      time (fun () ->
          for i = 0 to sends - 1 do
            let src = Rng.int rng n and dst = Rng.int rng n in
            let kind = if i land 7 = 0 then "heartbeat" else "data" in
            Transport.send transport ~src ~dst ~size:64 ~kind
              ~key:(string_of_int i) ();
          done;
          Engine.run engine)
    in
    assert (!sink > 0);
    wall *. 1e9 /. float_of_int sends

  (* A short fig14-style aggregation round: every host feeds a 1 Hz
     sensor into a syncless sum over tumbling 1 s windows, aggregated
     up a random bf-32 treeset to host 0. Reports wall time and the
     completeness of the recorded windows — the 10000-host round
     completing (with near-full completeness) is the tentpole's
     acceptance gate. *)
  let bench_agg_round ~seed ~hosts ~domains ~virtual_s =
    (* The peer-count scenario on a random bf-32 tree set: random trees
       need no coordinates, so Vivaldi never runs. *)
    let { Scenario.d; _ } =
      Scenario.peer_count ~seed ~hosts
      |> Scenario.map_tree_sets (fun ts -> { ts with bf = 32; shape = Random })
      |> Scenario.map_metas (fun m -> { m with name = "scale-count" })
      |> Scenario.build ~domains
    in
    let ledger = Ledger.create [ "scale-count" ] in
    Mortar_core.Peer.on_result (D.peer d 0) (fun (r : Mortar_core.Peer.result) ->
        Ledger.record ledger ~query:"scale-count" ~bucket:r.slot ~count:r.count ~at:(D.now d) ());
    (* Collect the other layers' garbage before timing, so the round
       measures the engine rather than inherited major-heap debt. *)
    Gc.full_major ();
    let (), wall = time (fun () -> D.run_until d virtual_s) in
    (* Slot s spans [1 + s, 2 + s). The first window opens with the
       install and closes while the chunked install is still reaching
       the leaves (at 100k hosts the bf-32 union trees are a level deeper
       and the last leaves install about a window later), so steady state
       starts one slot in, two at 100k. It ends at the last window the
       root delivered: later ones were still draining when the round
       stopped. A steady window that never arrived scores 0. *)
    let first = if hosts >= 50_000 then 2 else 1 in
    let last =
      List.fold_left
        (fun acc (e : unit Ledger.emission) -> max acc e.bucket)
        min_int (Ledger.emissions ledger "scale-count")
    in
    let completeness =
      Ledger.completeness ledger
        ~queries:[ ("scale-count", fun _ -> hosts) ]
        (Ledger.Buckets (first, last))
    in
    let results = List.length (Ledger.emissions ledger "scale-count") in
    (wall, results, if Float.is_nan completeness then 0.0 else completeness)

  let measure ~quick ~shards hosts =
    let rng = Rng.create 7 in
    let topo, topo_build_s = time (fun () -> Topology.transit_stub rng ~hosts ()) in
    let inserts = if quick then 20_000 else 200_000 in
    let ts_insert_ns = bench_ts_inserts ~inserts in
    let sends = if quick then hosts * 4 else hosts * 16 in
    let transport_send_ns = bench_transport topo ~sends in
    let agg_virtual_s = if quick then 6.0 else 12.0 in
    let agg_wall_s, agg_results, agg_completeness =
      bench_agg_round ~seed:42 ~hosts ~domains:shards ~virtual_s:agg_virtual_s
    in
    {
      hosts;
      routers = Topology.routers topo;
      shards;
      topo_build_s;
      ts_insert_ns;
      transport_send_ns;
      agg_virtual_s;
      agg_wall_s;
      agg_results;
      agg_completeness;
    }

  let json_of_rows ~quick rows =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n";
    Buffer.add_string b (Printf.sprintf "  \"bench\": \"scale\",\n");
    Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" quick);
    Buffer.add_string b "  \"scales\": [\n";
    List.iteri
      (fun i r ->
        Buffer.add_string b
          (Printf.sprintf
             "    {\"hosts\": %d, \"routers\": %d, \"shards\": %d, \"topology_build_s\": \
              %.6f,\n\
             \     \"ts_insert_ns\": %.1f, \"transport_send_ns\": %.1f,\n\
             \     \"agg_round\": {\"virtual_s\": %.1f, \"wall_s\": %.3f, \"results\": \
              %d, \"completeness\": %.4f}}%s\n"
             r.hosts r.routers r.shards r.topo_build_s r.ts_insert_ns r.transport_send_ns
             r.agg_virtual_s r.agg_wall_s r.agg_results r.agg_completeness
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string b "  ]\n}\n";
    Buffer.contents b

  (* Minimal JSON reader, enough to validate what we just wrote (and to
     fail CI if the writer ever emits something unparseable). *)
  let validate_json s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = failwith (Printf.sprintf "bench JSON invalid at %d: %s" !pos msg) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        incr pos
      done
    in
    let expect c =
      skip_ws ();
      match peek () with
      | Some c' when c' = c -> incr pos
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> string_lit ()
      | Some ('t' | 'f') -> bool_lit ()
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail "value"
    and obj () =
      expect '{';
      skip_ws ();
      if peek () = Some '}' then incr pos
      else begin
        let rec members () =
          string_lit ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            skip_ws ();
            members ()
          | Some '}' -> incr pos
          | _ -> fail "object"
        in
        members ()
      end
    and arr () =
      expect '[';
      skip_ws ();
      if peek () = Some ']' then incr pos
      else begin
        let rec elements () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements ()
          | Some ']' -> incr pos
          | _ -> fail "array"
        in
        elements ()
      end
    and string_lit () =
      expect '"';
      while !pos < n && s.[!pos] <> '"' do
        incr pos
      done;
      if !pos >= n then fail "unterminated string";
      incr pos
    and bool_lit () =
      let take w = String.length w <= n - !pos && String.sub s !pos (String.length w) = w in
      if take "true" then pos := !pos + 4
      else if take "false" then pos := !pos + 5
      else fail "boolean"
    and number () =
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true | _ -> false
      do
        incr pos
      done;
      if !pos = start then fail "number"
    in
    value ();
    skip_ws ();
    if !pos <> n then fail "trailing garbage"

  (* Schema check on top of well-formedness: every row must carry the
     fields downstream tooling reads, [shards] included. *)
  let validate_schema s =
    let contains key =
      let kn = String.length key and n = String.length s in
      let rec at i = i + kn <= n && (String.sub s i kn = key || at (i + 1)) in
      at 0
    in
    List.iter
      (fun key ->
        if not (contains key) then failwith ("bench JSON missing key " ^ key))
      [
        "\"bench\""; "\"quick\""; "\"scales\""; "\"hosts\""; "\"routers\""; "\"shards\"";
        "\"topology_build_s\""; "\"agg_round\""; "\"wall_s\""; "\"completeness\"";
      ]

  let run ~quick ~shards ~hosts ~out =
    (* The agg rounds allocate short-lived events and summaries at a high
       rate; a roomier minor heap and a lazier major GC cut wall time
       noticeably at the 10k/100k points without affecting results. *)
    Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20; space_overhead = 200 };
    let host_counts =
      match hosts with
      | Some hs -> hs
      | None -> if quick then [ 240; 680 ] else [ 680; 2000; 10_000; 100_000 ]
    in
    Printf.printf
      "=== scale bench (%s, %d shard domains): topology / ts-list / transport / \
       aggregation ===\n\
       %!"
      (if quick then "quick" else "full")
      shards;
    let rows =
      List.map
        (fun hosts ->
          let r = measure ~quick ~shards hosts in
          Printf.printf
            "%6d hosts (%d routers, %d shards): topo %.3fs  ts-insert %.0fns  send \
             %.0fns  agg %.1fvs in %.2fs wall (%d results, %.1f%% complete)\n\
             %!"
            r.hosts r.routers r.shards r.topo_build_s r.ts_insert_ns r.transport_send_ns
            r.agg_virtual_s r.agg_wall_s r.agg_results (100.0 *. r.agg_completeness);
          r)
        host_counts
    in
    let json = json_of_rows ~quick rows in
    validate_json json;
    validate_schema json;
    (match Filename.dirname out with
    | "." | "" -> ()
    | dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755);
    let oc = open_out out in
    output_string oc json;
    close_out oc;
    (* Read back and re-validate: CI treats an unparseable results file
       as a failure, not just a curiosity. *)
    let ic = open_in out in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    validate_json contents;
    validate_schema contents;
    Printf.printf "wrote %s (%d bytes, JSON ok)\n%!" out (String.length contents)
end

let () =
  let args = Array.to_list Sys.argv in
  let has f = List.mem f args in
  let arg_value flag default =
    let rec find = function
      | a :: b :: _ when a = flag -> b
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  let arg_opt flag =
    let rec find = function
      | a :: b :: _ when a = flag -> Some b
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  (* --metrics-out / --trace-out: run whatever mode was selected with the
     observability registry on, and dump it afterwards. Off by default so
     the timing modes measure the disabled-instrumentation cost. *)
  let module Obs = Mortar_obs.Obs in
  let metrics_out = arg_opt "--metrics-out" in
  let trace_out = arg_opt "--trace-out" in
  if metrics_out <> None || trace_out <> None then begin
    Obs.enabled := true;
    Obs.Reg.clear Obs.default
  end;
  (* --history FILE: validate the append-only benchmark history
     (results/BENCH.jsonl) — every line must be well-formed JSON carrying
     the keys downstream tooling groups by. Runs before (and composes
     with) any timing mode, so `--scale --quick --history ...` gates both
     the fresh results file and the accumulated history. *)
  Option.iter
    (fun path ->
      let contains line key =
        let kn = String.length key and n = String.length line in
        let rec at i = i + kn <= n && (String.sub line i kn = key || at (i + 1)) in
        at 0
      in
      let ic = open_in path in
      let rows = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then begin
             Scale.validate_json line;
             List.iter
               (fun key ->
                 if not (contains line key) then
                   failwith
                     (Printf.sprintf "%s row %d missing key %s" path (!rows + 1) key))
               [ "\"pr\""; "\"bench\""; "\"hosts\"" ];
             incr rows
           end
         done
       with End_of_file -> ());
      close_in ic;
      Printf.printf "history %s: %d rows ok\n%!" path !rows)
    (arg_opt "--history");
  if has "--smoke" then run_smoke ()
  else if has "--scale" then
    let shards = max 1 (int_of_string (arg_value "--shards" "1")) in
    (* --hosts 680,10000 overrides the built-in host-count ladder. *)
    let hosts =
      Option.map
        (fun s -> List.map int_of_string (String.split_on_char ',' s))
        (arg_opt "--hosts")
    in
    Scale.run ~quick:(has "--quick") ~shards ~hosts
      ~out:(arg_value "--out" "results/BENCH_CI.json")
  else begin
    let micro_only = has "--micro" in
    let figures_only = has "--figures" in
    let full = has "--full" in
    if not figures_only then run_micro ();
    if not micro_only then run_figures ~quick:(not full)
  end;
  Option.iter (fun p -> Obs.write_lines p (Obs.Reg.metrics_lines Obs.default)) metrics_out;
  Option.iter (fun p -> Obs.write_lines p (Obs.Reg.trace_lines Obs.default)) trace_out
