(* Sanity tests for the experiment registry and its shared helpers. *)

module Common = Mortar_experiments.Common

let test_registry_complete () =
  Mortar_experiments.Registry.ensure ();
  Mortar_experiments.Registry.ensure () (* idempotent *);
  let ids = List.map (fun e -> e.Common.id) (Common.all ()) in
  let expected =
    [ "fig01"; "fig09"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15"; "fig16";
      "fig17"; "fig18" ]
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "%s registered" id) true (List.mem id ids))
    expected;
  Alcotest.(check int) "no duplicates" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* Every figure of the paper's evaluation is covered, plus ablations. *)
  Alcotest.(check bool) "ablations registered" true
    (List.exists (fun id -> String.length id > 9 && String.sub id 0 9 = "ablation:") ids)

let test_find () =
  Mortar_experiments.Registry.ensure ();
  Alcotest.(check bool) "find fig12" true (Common.find "fig12" <> None);
  Alcotest.(check bool) "find unknown" true (Common.find "fig99" = None)

let test_cells () =
  Alcotest.(check string) "float" "3.14" (Common.cell_f 3.14159);
  Alcotest.(check string) "percent" "97.5%" (Common.cell_pct 0.975)

let test_provenance_plumbing () =
  (* The harness's true-window provenance: with synchronized clocks every
     window's tuples carry their true slot and the majority matches. *)
  let h =
    Small_scenario.peer_count ~hosts:24 ()
    |> Mortar_experiments.Scenario.map_metas (fun m -> { m with track_provenance = true })
    |> Mortar_experiments.Harness.create
  in
  Mortar_experiments.Harness.run_until h 20.0;
  let prov = Mortar_experiments.Harness.provenance_results h in
  Alcotest.(check bool) "provenance recorded" true (prov <> []);
  (* Steady results should be dominated by a single true slot each. *)
  let late = List.filter (fun (t, _) -> t > 10.0) prov in
  List.iter
    (fun (_, slots) ->
      match slots with
      | [] -> ()
      | _ ->
        let total = List.fold_left (fun a (_, n) -> a + n) 0 slots in
        let best = List.fold_left (fun a (_, n) -> max a n) 0 slots in
        Alcotest.(check bool) "majority in one slot" true
          (float_of_int best >= 0.5 *. float_of_int total))
    late

let tests =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "registry find" `Quick test_find;
    Alcotest.test_case "table cells" `Quick test_cells;
    Alcotest.test_case "provenance plumbing" `Slow test_provenance_plumbing;
  ]
