(* Figure 12 (§7.2.1): steady-state completeness as a function of the
   percentage of disconnected nodes, for tree-set sizes 1 through 5.
   The paper reports near-optimal coverage with four trees: 100% at
   10-20% failures, 98% at 30%, 94% at 40%; five trees adds little. *)

let degrees_full = [ 1; 2; 3; 4; 5 ]

let degrees_quick = [ 1; 2; 4 ]

let failures_full = [ 0.0; 0.1; 0.2; 0.3; 0.4 ]

let failures_quick = [ 0.0; 0.2; 0.4 ]

let one_run ~quick ~degree ~failure =
  let hosts = if quick then 240 else 680 in
  let h =
    Scenario.peer_count ~seed:(31 + degree) ~hosts
    |> Scenario.map_tree_sets (fun ts -> { ts with degree })
    |> Harness.create
  in
  Harness.run_until h 20.0;
  ignore (Harness.fail_fraction h failure);
  Harness.run_until h 80.0;
  let live = Harness.live_hosts h in
  let completeness = Harness.mean_completeness h 50.0 80.0 ~denominator:live in
  let optimal = float_of_int (Harness.union_bound h) /. float_of_int live in
  (completeness, optimal)

let run ~quick =
  let degrees = if quick then degrees_quick else degrees_full in
  let failures = if quick then failures_quick else failures_full in
  Common.table
    ~columns:
      ("failed"
      :: (List.map (fun d -> Printf.sprintf "%d tree%s" d (if d = 1 then "" else "s")) degrees
         @ [ "optimal(D=4)" ]))
    (fun () ->
      List.map
        (fun failure ->
          let runs = List.map (fun degree -> (degree, one_run ~quick ~degree ~failure)) degrees in
          let cells = List.map (fun (_, (c, _)) -> Common.cell_pct c) runs in
          let optimal =
            (* The D=4 run's union bound; the highest degree when 4 absent. *)
            match List.assoc_opt 4 runs with
            | Some (_, o) -> o
            | None -> snd (snd (List.nth runs (List.length runs - 1)))
          in
          (Printf.sprintf "%.0f%%" (100.0 *. failure) :: cells)
          @ [ Common.cell_pct optimal ])
        failures)

let experiment =
  {
    Common.id = "fig12";
    title = "Completeness vs failed nodes for tree-set sizes (live deployment)";
    paper_claim =
      "D=4: ~100% at 10-20% failures, 98% at 30%, 94% at 40%; D=5 adds little; single \
       tree degrades steeply";
    run;
  }

let register () = Common.register experiment
