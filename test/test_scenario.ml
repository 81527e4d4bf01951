(* Scenario descriptions and the one builder: the record is plain data,
   the build order is fixed, and what the .mli says is derived is
   derived. *)

module Scenario = Mortar_experiments.Scenario
module D = Mortar_emul.Deployment
module Treeset = Mortar_overlay.Treeset

let small = Small_scenario.peer_count ~hosts:24 ()

let test_plain_data () =
  (* Marshal refuses functional values unless asked for [Closures]. *)
  match Marshal.to_string small [ Marshal.No_sharing ] with
  | _ -> ()
  | exception Invalid_argument msg -> Alcotest.failf "scenario holds a closure: %s" msg

let edges (b : Scenario.built) = Array.map Treeset.union_edges b.tree_sets

let test_later_steps_keep_earlier_draws () =
  (* Sensors, installs and faults come after the tree sets, so changing
     them moves no tree-set draw. *)
  let base = edges (Scenario.build small) in
  let changed =
    {
      small with
      sensors = small.sensors @ [ { stream = "extra"; period = 0.5; hosts = All; value = Ramp } ];
      queries = [];
      faults = [ D.Partition_stub { stub = 1; from = 5.0; until = 6.0 } ];
    }
  in
  Alcotest.(check bool) "same tree sets" true (base = edges (Scenario.build changed))

let test_coordinates_derived () =
  let random =
    {
      small with
      tree_sets =
        List.map (fun (ts : Scenario.tree_set) -> { ts with shape = Random }) small.tree_sets;
    }
  in
  let b = Scenario.build random in
  Alcotest.(check bool) "random sets skip Vivaldi" true
    (match D.coordinates b.d with _ -> false | exception Invalid_argument _ -> true);
  let b = Scenario.build small in
  Alcotest.(check int) "planned sets converge" 24 (Array.length (D.coordinates b.d));
  let b =
    Scenario.build
      {
        random with
        tree_sets = [];
        queries = [];
        planner = Some { bf = 4; degree = 2; seed = 1 };
      }
  in
  Alcotest.(check bool) "the planner converges and gets a registry" true
    (Array.length (D.coordinates b.d) = 24 && Option.is_some b.registry);
  Alcotest.check_raises "a query on a missing tree set"
    (Invalid_argument "Scenario.build: peer-count uses no tree set 0") (fun () ->
      ignore (Scenario.build { small with tree_sets = [] }))

let test_members_exclude_root () =
  let only members = { small with tree_sets = [ { (List.hd small.tree_sets) with members } ] } in
  let b = Scenario.build (only (Only [ 0; 3; 5; 7 ])) in
  Alcotest.(check (list int)) "root dropped from members" [ 0; 3; 5; 7 ]
    (List.sort compare (Array.to_list (Treeset.nodes b.tree_sets.(0))));
  let b = Scenario.build (only (Only [ 0 ])) in
  Alcotest.(check int) "no members: one tree" 1 (Treeset.degree b.tree_sets.(0));
  Alcotest.(check (list int)) "no members: the root alone" [ 0 ]
    (Array.to_list (Treeset.nodes b.tree_sets.(0)))

let test_mlq_one_row () =
  (* The old [--planner naive --queries 12]: arguments, not global state,
     and only that row runs. *)
  let p = Mortar_experiments.Mlq.params ~quick:true in
  match Mortar_experiments.Mlq.rows ~planner:`Naive ~queries:12 p with
  | [ (12, Some naive, None) ] ->
    Alcotest.(check bool) "naive point measured" true (naive.mbps > 0.0 && naive.compl > 0.9)
  | rows -> Alcotest.failf "expected one naive row at 12 queries, got %d rows" (List.length rows)

let tests =
  [
    Alcotest.test_case "plain data, no closures" `Quick test_plain_data;
    Alcotest.test_case "later steps keep earlier draws" `Quick test_later_steps_keep_earlier_draws;
    Alcotest.test_case "coordinates derived from the description" `Quick test_coordinates_derived;
    Alcotest.test_case "tree-set members exclude the root" `Quick test_members_exclude_root;
    Alcotest.test_case "mlq runs one requested row" `Slow test_mlq_one_row;
  ]
