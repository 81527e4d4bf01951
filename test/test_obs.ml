(* The observability layer: bucket semantics, scope merging, the gated
   default registry, JSON-lines round-trips, and the harness contract
   (its ledger holds exactly the root results the peers trace, and its
   figures are the ledger's policy applied to them). *)

module Obs = Mortar_obs.Obs
module J = Mortar_obs.Obs_json
module Harness = Mortar_experiments.Harness

let hist r ?scope name =
  match Obs.Reg.histogram r ?scope name with
  | Some h -> h
  | None -> Alcotest.fail (name ^ ": histogram missing")

let test_histogram_edges () =
  let r = Obs.Reg.create () in
  let buckets = [| 1.0; 2.0; 4.0 |] in
  (* Upper edges are inclusive: v lands in the first bucket with
     v <= edge. Exercise both sides of every edge plus overflow. *)
  List.iter
    (fun v -> Obs.Reg.observe r ~buckets "lat" v)
    [ 0.5; 1.0; 1.5; 2.0; 3.9; 4.0; 4.1; 100.0 ];
  let h = hist r "lat" in
  Alcotest.(check (array (float 0.0))) "edges kept" buckets h.Obs.h_buckets;
  Alcotest.(check (array int)) "le-boundary counts" [| 2; 2; 2 |] h.Obs.h_counts;
  Alcotest.(check int) "overflow" 2 h.Obs.h_overflow;
  Alcotest.(check int) "count" 8 h.Obs.h_count;
  Alcotest.(check (float 1e-9)) "sum" 117.0 h.Obs.h_sum;
  (* Buckets are fixed on first observation; a later conflicting request
     is ignored rather than resizing the histogram under the caller. *)
  Obs.Reg.observe r ~buckets:[| 10.0 |] "lat" 0.1;
  Alcotest.(check (array (float 0.0)))
    "buckets fixed after first observation" buckets (hist r "lat").Obs.h_buckets

let test_scope_merging () =
  let r = Obs.Reg.create () in
  Obs.Reg.incr r "hits";
  Obs.Reg.incr r ~scope:(Obs.Node 3) ~by:4 "hits";
  Obs.Reg.incr r ~scope:(Obs.Query "q") ~by:2 "hits";
  Obs.Reg.incr r ~scope:(Obs.Node 3) "other";
  Alcotest.(check int) "counter_total sums all scopes" 7 (Obs.Reg.counter_total r "hits");
  Alcotest.(check int) "per-scope value" 4 (Obs.Reg.counter_value r ~scope:(Obs.Node 3) "hits");
  Alcotest.(check int) "absent counter is 0" 0 (Obs.Reg.counter_value r "nope");
  let buckets = [| 1.0; 10.0 |] in
  Obs.Reg.observe r ~scope:(Obs.Node 1) ~buckets "age" 0.5;
  Obs.Reg.observe r ~scope:(Obs.Node 2) ~buckets "age" 5.0;
  Obs.Reg.observe r ~scope:(Obs.Node 2) ~buckets "age" 50.0;
  (match Obs.Reg.histogram_total r "age" with
  | None -> Alcotest.fail "histogram_total missing"
  | Some h ->
    Alcotest.(check (array int)) "element-wise sum" [| 1; 1 |] h.Obs.h_counts;
    Alcotest.(check int) "overflow merged" 1 h.Obs.h_overflow;
    Alcotest.(check int) "count merged" 3 h.Obs.h_count);
  (* Mismatched edges across scopes must not silently merge. *)
  Obs.Reg.observe r ~scope:(Obs.Node 9) ~buckets:[| 2.0 |] "age" 1.0;
  Alcotest.check_raises "mismatched edges raise"
    (Invalid_argument "Obs: histogram_total over differing buckets for age") (fun () ->
      ignore (Obs.Reg.histogram_total r "age"))

let test_scope_strings () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Obs.scope_to_string s ^ " round-trips")
        true
        (Obs.scope_of_string (Obs.scope_to_string s) = Some s))
    [ Obs.Global; Obs.Node 17; Obs.Query "peer-count" ];
  Alcotest.(check bool) "garbage rejected" true (Obs.scope_of_string "nodeX" = None)

let test_gating () =
  let saved = !Obs.enabled in
  Fun.protect
    ~finally:(fun () ->
      Obs.enabled := saved;
      Obs.Reg.clear Obs.default)
    (fun () ->
      Obs.Reg.clear Obs.default;
      Obs.enabled := false;
      Obs.incr "gated";
      Obs.observe "gated_h" 1.0;
      Obs.trace ~t:0.0 (Obs.Mark { name = "m"; detail = "" });
      Alcotest.(check int) "disabled incr is a no-op" 0
        (Obs.Reg.counter_value Obs.default "gated");
      Alcotest.(check bool) "disabled observe is a no-op" true
        (Obs.Reg.histogram Obs.default "gated_h" = None);
      Alcotest.(check int) "disabled trace is a no-op" 0
        (List.length (Obs.Reg.events Obs.default));
      Obs.enabled := true;
      Obs.incr "gated";
      Obs.trace ~t:2.5 (Obs.Mark { name = "m"; detail = "" });
      Alcotest.(check int) "enabled incr records" 1
        (Obs.Reg.counter_value Obs.default "gated");
      Alcotest.(check int) "enabled trace records" 1
        (List.length (Obs.Reg.events Obs.default)))

let test_trace_cap () =
  let r = Obs.Reg.create ~trace_cap:3 () in
  for i = 1 to 5 do
    Obs.Reg.trace r ~t:(float_of_int i) (Obs.Node_down { node = i })
  done;
  Alcotest.(check int) "capped at trace_cap" 3 (List.length (Obs.Reg.events r));
  Alcotest.(check int) "drops counted" 2 (Obs.Reg.trace_dropped r);
  (* Truncation surfaces in the dump as a synthetic counter. *)
  let lines = Obs.Reg.metrics_lines r in
  Alcotest.(check bool) "obs.trace_dropped in dump" true
    (List.exists
       (fun l ->
         match J.metric_of_line l with
         | Ok (J.Counter { name = "obs.trace_dropped"; value; _ }) -> value = 2.0
         | _ -> false)
       lines)

let test_metrics_roundtrip () =
  let r = Obs.Reg.create () in
  Obs.Reg.incr r ~by:42 "sent";
  Obs.Reg.incr r ~scope:(Obs.Node 7) ~by:3 "sent";
  Obs.Reg.set_gauge r ~scope:(Obs.Query "q1") "load" 0.125;
  Obs.Reg.observe r ~buckets:[| 1.0; 2.0 |] "age" 1.5;
  Obs.Reg.observe r ~buckets:[| 1.0; 2.0 |] "age" 9.0;
  let parsed =
    List.map
      (fun l ->
        match J.metric_of_line l with
        | Ok m -> m
        | Error e -> Alcotest.fail (Printf.sprintf "parse failed (%s): %s" e l))
      (Obs.Reg.metrics_lines r)
  in
  Alcotest.(check int) "all metrics emitted" 4 (List.length parsed);
  let find name =
    List.find_opt (fun m -> J.metric_name m = name && J.metric_scope m = "global") parsed
  in
  (match find "sent" with
  | Some (J.Counter { value; _ }) -> Alcotest.(check (float 0.0)) "counter value" 42.0 value
  | _ -> Alcotest.fail "global sent missing");
  (match find "age" with
  | Some (J.Histogram { buckets; counts; overflow; sum; count; _ }) ->
    Alcotest.(check (array (float 0.0))) "edges round-trip" [| 1.0; 2.0 |] buckets;
    Alcotest.(check (array (float 0.0))) "bucket counts round-trip" [| 0.0; 1.0 |] counts;
    Alcotest.(check (float 0.0)) "overflow round-trip" 1.0 overflow;
    Alcotest.(check (float 1e-9)) "sum round-trip" 10.5 sum;
    Alcotest.(check (float 0.0)) "count round-trip" 2.0 count
  | _ -> Alcotest.fail "age histogram missing");
  (* Emission order is sorted (scope, name): stable across runs. *)
  let keys = List.map (fun m -> (J.metric_scope m, J.metric_name m)) parsed in
  Alcotest.(check bool) "sorted (scope, name)" true (keys = List.sort compare keys)

let test_trace_roundtrip () =
  let r = Obs.Reg.create () in
  let evs =
    [
      (0.25, Obs.Tuple_send { src = 1; dst = 2; kind = "data"; size = 96 });
      (0.5, Obs.Tuple_drop { src = 4; dst = -1; kind = "data"; reason = "routing" });
      (1.0, Obs.Reconcile_round { node = 3; partner = 9 });
      ( 2.0,
        Obs.Result
          {
            query = "peer-count";
            slot = 2;
            count = 24;
            value = 24.0;
            hops = 3;
            hops_max = 5;
            age = 0.75;
            prov = [ (2, 20); (3, 4) ];
          } );
      (3.0, Obs.Mark { name = "phase"; detail = "fail \"half\"" });
    ]
  in
  List.iter (fun (t, e) -> Obs.Reg.trace r ~t e) evs;
  let back =
    List.map
      (fun l ->
        match J.event_of_line l with
        | Ok te -> te
        | Error e -> Alcotest.fail (Printf.sprintf "event parse failed (%s): %s" e l))
      (Obs.Reg.trace_lines r)
  in
  Alcotest.(check int) "all events emitted" (List.length evs) (List.length back);
  List.iter2
    (fun (t, e) (t', e') ->
      Alcotest.(check (float 0.0)) "stamp round-trips" t t';
      Alcotest.(check bool) "event round-trips" true (e = e'))
    evs back

let test_harness_figures_from_ledger () =
  (* The harness's figures come from its result ledger; the ledger must
     hold exactly the root results the peers trace into the global
     registry, and the figures must be the ledger's policy applied to
     them: best emission per slot, capped, delivered in the interval. *)
  let saved = !Obs.enabled in
  Fun.protect
    ~finally:(fun () ->
      Obs.enabled := saved;
      Obs.Reg.clear Obs.default)
    (fun () ->
      Obs.Reg.clear Obs.default;
      Obs.enabled := true;
      let hosts = 24 in
      let h = Harness.create (Small_scenario.peer_count ~hosts ()) in
      Harness.run_until h 15.0;
      let reg = Obs.default in
      let results = Harness.results h in
      let scope = Obs.Query Harness.query_name in
      Alcotest.(check bool) "harness produced results" true (results <> []);
      Alcotest.(check int) "results counter matches list"
        (List.length results)
        (Obs.Reg.counter_value reg ~scope "results");
      (match Obs.Reg.histogram reg ~scope "result_age" with
      | None -> Alcotest.fail "result_age histogram missing"
      | Some ha ->
        Alcotest.(check int) "result_age count matches" (List.length results) ha.Obs.h_count;
        let sum_age = List.fold_left (fun a r -> a +. r.Harness.age) 0.0 results in
        Alcotest.(check (float 1e-6)) "result_age sum matches" sum_age ha.Obs.h_sum);
      let result_events =
        List.filter_map
          (function
            | _, Obs.Result { query; slot; count; _ } when query = Harness.query_name ->
              Some (slot, count)
            | _ -> None)
          (Obs.Reg.events reg)
      in
      Alcotest.(check (list (pair int int)))
        "one Result event per recorded result"
        (List.map (fun r -> (r.Harness.slot, r.Harness.count)) results)
        result_events;
      (* The figures, recomputed by hand from the recorded results. *)
      let t0 = 5.0 and t1 = 15.0 in
      let best = Hashtbl.create 16 in
      List.iter
        (fun (r : Harness.recorded) ->
          match Hashtbl.find_opt best r.slot with
          | Some (b : Harness.recorded) when b.count >= r.count -> ()
          | _ -> Hashtbl.replace best r.slot r)
        results;
      let picked =
        Hashtbl.fold
          (fun _ (r : Harness.recorded) acc ->
            if r.sim_time >= t0 && r.sim_time < t1 then r :: acc else acc)
          best []
        |> List.sort compare
      in
      let mean f =
        List.fold_left (fun a r -> a +. f r) 0.0 picked /. float_of_int (List.length picked)
      in
      let c1 = Harness.mean_completeness h t0 t1 ~denominator:hosts in
      Alcotest.(check bool) "derived completeness sane" true (c1 > 0.0 && c1 <= 1.0);
      Alcotest.(check (float 1e-9)) "completeness is the ledger's"
        (mean (fun r -> float_of_int (min r.Harness.count hosts) /. float_of_int hosts))
        c1;
      Alcotest.(check (float 1e-9)) "latency is the ledger's"
        (mean (fun r -> r.Harness.age))
        (Harness.mean_latency h t0 t1))

let tests =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_edges;
    Alcotest.test_case "scope merging" `Quick test_scope_merging;
    Alcotest.test_case "scope strings" `Quick test_scope_strings;
    Alcotest.test_case "default registry gating" `Quick test_gating;
    Alcotest.test_case "trace cap" `Quick test_trace_cap;
    Alcotest.test_case "metrics sink round-trip" `Quick test_metrics_roundtrip;
    Alcotest.test_case "trace sink round-trip" `Quick test_trace_roundtrip;
    Alcotest.test_case "harness figures from ledger" `Slow test_harness_figures_from_ledger;
  ]
