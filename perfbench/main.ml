(* The repo benchmark: one workload, one seed, [--seconds] of rounds.

   A round builds the workload's deployment from the seed (setup), then
   simulates its fixed virtual duration one virtual second at a time
   (run). Rounds repeat until the time budget is spent; host timings are
   medians over rounds, and every simulated figure must repeat exactly
   from round to round. [--trace 0] prints the end-to-end metrics;
   [--trace 1] alternates untraced and traced rounds, times the layer
   kernels, prints the per-layer metrics and writes the spans of the
   first traced round to [--trace-out]. The last stdout line is the
   JSON result. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer

let median xs = Mortar_util.Stats.median (Array.of_list xs)

(* [f ()] inside a span named [name] when tracing. *)
let within tracer name f =
  match tracer with
  | None -> f ()
  | Some tr ->
    let s = Trace.open_ tr name in
    let v = f () in
    Trace.close tr s [];
    v

(* Everything a round measures. [sim] holds the figures that must
   repeat exactly at one seed; the rest are host timings and the GC
   counters, which tracing would disturb. *)
type round = {
  setup_s : float;
  run_s : float;
  phases : (string * float) list;
  handle_loss_s : float;
  slice_p50 : float;
  slice_max : float;
  failures : string list;
  sim : (string * float) list;
  gc : (string * float) list;
  delivered_by_kind : (string * int) list;
}

let kinds = [ "data"; "heartbeat"; "control"; "result" ]

let peer_fields : (string * (Peer.stats -> int)) list =
  [
    ("tuples_sent", fun s -> s.tuples_sent);
    ("tuples_received", fun s -> s.tuples_received);
    ("tuples_late", fun s -> s.tuples_late);
    ("tuples_dropped", fun s -> s.tuples_dropped);
    ("results_emitted", fun s -> s.results_emitted);
    ("reconciliations", fun s -> s.reconciliations);
    ("type_faults", fun s -> s.type_faults);
  ]

let peer_totals d =
  let stats = List.init (D.hosts d) (fun h -> Peer.stats (D.peer d h)) in
  List.map
    (fun (name, get) ->
      ("peer." ^ name, float_of_int (List.fold_left (fun acc s -> acc + get s) 0 stats)))
    peer_fields

let round (w : Workloads.t) ~seed ~tracer =
  Gc.compact ();
  let totals = Hashtbl.create 16 in
  let add name dt =
    Hashtbl.replace totals name (dt +. Option.value (Hashtbl.find_opt totals name) ~default:0.0)
  in
  let span name f =
    within tracer name (fun () ->
        let v, dt = Clock.time f in
        add name dt;
        v)
  in
  let emissions = ref [] in
  let deliver (e : Ledger.emission) =
    emissions := e :: !emissions;
    match tracer with
    | Some tr ->
      Trace.instant tr "result"
        [ ("slot", float_of_int e.slot); ("count", float_of_int e.count); ("age_s", e.age) ]
    | None -> ()
  in
  let env = { Workloads.span; deliver } in
  let inst, setup_s = within tracer "setup" (fun () -> Clock.time (fun () -> w.setup env ~seed)) in
  let phases = Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] in
  Hashtbl.reset totals;
  let d = inst.d in
  let by_kind = Hashtbl.create 8 in
  if tracer <> None then
    D.on_deliver d (fun ~src:_ ~dst:_ ~kind ->
        Hashtbl.replace by_kind kind (1 + Option.value (Hashtbl.find_opt by_kind kind) ~default:0));
  let nslices = int_of_float (Float.ceil inst.horizon) in
  let slices = Array.make nslices 0.0 in
  let gc0 = Gc.quick_stat () in
  let (), run_s =
    within tracer "run" (fun () ->
        Clock.time (fun () ->
            for i = 1 to nslices do
              let target = Float.min inst.horizon (float_of_int i) in
              let run () = slices.(i - 1) <- snd (Clock.time (fun () -> D.run_until d target)) in
              match tracer with
              | None -> run ()
              | Some tr ->
                let s = Trace.open_ tr "engine.slice" in
                let ev = D.events_fired d and msgs = D.messages_sent d and mw = Gc.minor_words () in
                run ();
                Trace.close tr s
                  [
                    ("virtual_s", target);
                    ("events", float_of_int (D.events_fired d - ev));
                    ("messages", float_of_int (D.messages_sent d - msgs));
                    ("minor_words", Gc.minor_words () -. mw);
                  ]
            done))
  in
  let handle_loss_s = Option.value (Hashtbl.find_opt totals "plan.handle_loss") ~default:0.0 in
  let gc1 = Gc.quick_stat () in
  let emissions = List.rev !emissions in
  let score =
    Ledger.score ~window:inst.window ~lo:inst.steady_lo ~hi:inst.steady_hi ~queries:inst.queries
      ~live:inst.live emissions
  in
  let failures =
    inst.check () @ if score.expected = 0 then [ "no steady window was expected" ] else []
  in
  let sent = D.messages_sent d in
  let msgs = float_of_int (max 1 sent) in
  let sim =
    [
      ("completeness", score.completeness);
      ("windows_expected", float_of_int score.expected);
      ("windows_missed", float_of_int score.missed);
      ("result_age_p50_s", Ledger.percentile score.ages 0.5);
      ("result_age_max_s", Ledger.percentile score.ages 1.0);
      ("result_age_samples", float_of_int (Array.length score.ages));
      ("bandwidth_mbps", Mortar_experiments.Mlq.mbps d inst.steady_lo inst.steady_hi);
      ("plan.physical_trees", float_of_int inst.physical);
      ("plan.replans", float_of_int (inst.replans ()));
      ("engine.events", float_of_int (D.events_fired d));
      ("transport.sent", float_of_int sent);
      ("transport.delivered", float_of_int (D.messages_delivered d));
    ]
    @ List.map (fun k -> ("transport.bytes_" ^ k ^ "_mb", D.total_bytes_of_kind d ~kind:k /. 1e6)) kinds
    @ peer_totals d
  in
  let gc =
    [
      ("gc.minor_words_per_msg", (gc1.minor_words -. gc0.minor_words) /. msgs);
      ("gc.promoted_words_per_msg", (gc1.promoted_words -. gc0.promoted_words) /. msgs);
      ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
    ]
  in
  {
    setup_s;
    run_s;
    phases;
    handle_loss_s;
    slice_p50 = Mortar_util.Stats.median slices;
    slice_max = Mortar_util.Stats.maximum slices;
    failures;
    sim;
    gc;
    delivered_by_kind = List.map (fun k -> (k, Option.value (Hashtbl.find_opt by_kind k) ~default:0)) kinds;
  }

(* ------------------------------------------------------------------ *)

let setups = 7

(* Host seconds the traced run keeps back for the layer kernels. *)
let kernel_reserve = 2.0

(* An environment that times nothing and drops every delivery. *)
let quiet = { Workloads.span = (fun _ f -> f ()); deliver = ignore }

let usage () =
  prerr_endline
    "usage: perfbench --workload (agg-10k|mlq-replan|sketch-churn) --seed N --seconds S --trace \
     (0|1) [--trace-out FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S time budget for the rounds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--trace-out", Arg.Set_string trace_out, "FILE where the traced run writes its spans");
    ]
    (fun _ -> usage ())
    "perfbench";
  let w = match Workloads.find !workload with Some w -> w | None -> usage () in
  if !trace <> 0 && !trace <> 1 then usage ();
  let traced = !trace = 1 in
  let g = Gc.get () in
  Printf.printf "workload %s seed %d seconds %g trace %d\n" w.name !seed !seconds !trace;
  Printf.printf "gc: default settings, minor_heap_size %d words, space_overhead %d\n"
    g.minor_heap_size g.space_overhead;
  let start = Clock.now () in
  let elapsed () = Clock.now () -. start in
  (* Untraced rounds; in a traced run every untraced round is followed
     by a traced one. *)
  let plain = ref [] and with_trace = ref [] and tracer0 = ref None in
  let one_round () =
    let r = round w ~seed:!seed ~tracer:None in
    plain := r :: !plain;
    Printf.printf "round %d: setup %.3f s, run %.3f s\n%!" (List.length !plain) r.setup_s r.run_s;
    if traced then begin
      let tr = Trace.create () in
      let r = round w ~seed:!seed ~tracer:(Some tr) in
      if !tracer0 = None then tracer0 := Some tr;
      with_trace := r :: !with_trace;
      Printf.printf "traced round %d: setup %.3f s, run %.3f s\n%!" (List.length !with_trace)
        r.setup_s r.run_s
    end
  in
  one_round ();
  let first = List.hd !plain in
  let peak_heap_words = (Gc.quick_stat ()).top_heap_words in
  let per_round = elapsed () in
  (* Set-up is short next to a round, so [setup_s] is the median of
     dedicated set-ups (built, then dropped) after the rounds, all made
     alike: at least [setups], then as many as the rest of the budget
     holds. *)
  let kernels = if traced then kernel_reserve else 0.0 in
  while elapsed () +. per_round +. (float_of_int setups *. first.setup_s) +. kernels <= !seconds do
    one_round ()
  done;
  let setup_times = ref [] in
  while
    List.length !setup_times < setups || elapsed () +. first.setup_s +. kernels <= !seconds
  do
    Gc.compact ();
    setup_times := snd (Clock.time (fun () -> w.setup quiet ~seed:!seed)) :: !setup_times
  done;
  let setup_s = median !setup_times in
  let all = List.rev !plain @ List.rev !with_trace in
  let repeat_failures =
    List.filter_map
      (fun r ->
        if compare r.sim first.sim = 0 && r.failures = first.failures then None
        else Some "simulated figures differ between rounds at one seed")
      all
    |> List.sort_uniq compare
  in
  let failures = first.failures @ repeat_failures in
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
  let sim name = List.assoc name first.sim in
  let med f rs = median (List.map f rs) in
  let peak_heap_mb = float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let metrics =
    if not traced then
      [
        ("setup_s", setup_s, "s");
        ("run_s", med (fun r -> r.run_s) !plain, "s");
        ("peak_heap_mb", peak_heap_mb, "MB");
        ("completeness", sim "completeness", "fraction");
        ("result_age_p50_s", sim "result_age_p50_s", "s");
        ("result_age_max_s", sim "result_age_max_s", "s");
        ("bandwidth_mbps", sim "bandwidth_mbps", "Mb/s");
      ]
    else begin
      let k = Kernels.measure w in
      let traced_rounds = !with_trace in
      let phase name =
        med (fun r -> Option.value (List.assoc_opt name r.phases) ~default:0.0) all
      in
      let events = sim "engine.events" and sent = sim "transport.sent" in
      let count name = (name, sim name, "count") in
      List.map (fun n -> ("setup." ^ n ^ "_s", phase ("setup." ^ n), "s"))
        [ "topology"; "deployment"; "coords"; "overlay"; "plan"; "install" ]
      @ [
          ("plan.handle_loss_s", med (fun r -> r.handle_loss_s) all, "s");
          count "plan.physical_trees";
          count "plan.replans";
          count "engine.events";
          ("engine.events_per_msg", events /. sent, "events/msg");
          ("engine.slice_p50_s", med (fun r -> r.slice_p50) !plain, "s");
          ("engine.slice_max_s", med (fun r -> r.slice_max) !plain, "s");
          count "transport.sent";
          count "transport.delivered";
          ("transport.lost_frac", 1.0 -. (sim "transport.delivered" /. sent), "fraction");
        ]
      @ List.map (fun k -> ("transport.bytes_" ^ k ^ "_mb", sim ("transport.bytes_" ^ k ^ "_mb"), "MB")) kinds
      @ List.map
          (fun (k, n) -> ("transport.delivered_" ^ k, float_of_int n, "count"))
          (List.hd traced_rounds).delivered_by_kind
      @ List.map (fun (n, _) -> count ("peer." ^ n)) peer_fields
      @ [
          ("op.lift_ns", k.lift_ns, "ns");
          ("op.merge_ns", k.merge_ns, "ns");
          ("op.finalize_ns", k.finalize_ns, "ns");
          ("op.state_bytes", k.state_bytes, "bytes");
          ("ts_list.insert_ns", k.insert_ns, "ns");
          ("gc.minor_words_per_msg", List.assoc "gc.minor_words_per_msg" first.gc, "words/msg");
          ("gc.promoted_words_per_msg", List.assoc "gc.promoted_words_per_msg" first.gc, "words/msg");
          ("gc.major_collections", List.assoc "gc.major_collections" first.gc, "count");
          ("ledger.windows_missed_frac", sim "windows_missed" /. sim "windows_expected", "fraction");
          ("ledger.age_samples", sim "result_age_samples", "count");
          ( "trace.overhead_frac",
            (med (fun r -> r.run_s) traced_rounds /. med (fun r -> r.run_s) !plain) -. 1.0,
            "fraction" );
        ]
    end
  in
  (match (!tracer0, !trace_out) with
  | Some tr, path when path <> "" -> Trace.write tr path
  | _ -> ());
  Printf.printf "rounds %d, age samples %.0f, windows expected %.0f, missed %.0f\n"
    (List.length !plain) (sim "result_age_samples") (sim "windows_expected") (sim "windows_missed");
  List.iter (fun (name, v, unit) -> Printf.printf "%-32s %s %s\n" name (Json.num v) unit) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.str name) (Json.num v)
             (Json.str unit))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %.0f, \"failed\": %.0f, \"metrics\": {%s}}\n"
    (failures = []) (sim "windows_expected") (sim "windows_missed") body;
  exit (if failures = [] then 0 else 1)
