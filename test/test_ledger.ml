(* The result ledger's one policy: best emission per window (highest
   count, earliest on ties), capped score, missed windows scored 0,
   inclusive bucket ranges, and a score independent of record order. *)

module Ledger = Mortar_experiments.Ledger

let q = "q"

let compl ?(expected = 10) t sel = Ledger.completeness t ~queries:[ (q, fun _ -> expected) ] sel

let test_straggler () =
  let t = Ledger.create [ q ] in
  Ledger.record t ~query:q ~bucket:3 ~count:10 ~at:1.0 ();
  Ledger.record t ~query:q ~bucket:3 ~count:4 ~at:2.0 ();
  Alcotest.(check (float 0.0)) "straggler ignored" 1.0 (compl t (Ledger.Buckets (3, 3)));
  Alcotest.(check (option int)) "best keeps the full count" (Some 10)
    (Option.map (fun (e : unit Ledger.emission) -> e.count) (Ledger.best t q 3));
  Alcotest.(check int) "every emission kept" 2 (List.length (Ledger.emissions t q))

let test_equal_count_duplicate () =
  let t = Ledger.create [ q ] in
  Ledger.record t ~query:q ~bucket:1 ~count:5 ~at:1.0 "first";
  Ledger.record t ~query:q ~bucket:1 ~count:5 ~at:2.0 "second";
  Alcotest.(check (option string)) "earlier equal count wins" (Some "first")
    (Option.map (fun (e : string Ledger.emission) -> e.data) (Ledger.best t q 1));
  Alcotest.(check int) "selected by the best emission's delivery" 0
    (List.length (Ledger.windows t q (Ledger.Delivered (1.5, 3.0))));
  Alcotest.(check int) "delivered at 1.0" 1
    (List.length (Ledger.windows t q (Ledger.Delivered (1.0, 1.5))))

let test_missed_window () =
  let t = Ledger.create [ q ] in
  Ledger.record t ~query:q ~bucket:1 ~count:10 ~at:2.0 ();
  Ledger.record t ~query:q ~bucket:3 ~count:10 ~at:4.0 ();
  Alcotest.(check (float 1e-12)) "missed window scores 0" (2.0 /. 3.0)
    (compl t (Ledger.Buckets (1, 3)));
  Alcotest.(check bool) "no window selected at all" true
    (Float.is_nan (compl t (Ledger.Buckets (5, 4))));
  let nobody = Ledger.create [ q ] in
  Alcotest.(check (float 0.0)) "a query that never delivered scores 0" 0.0
    (compl nobody (Ledger.Buckets (1, 2)))

let test_cap () =
  let t = Ledger.create [ q ] in
  Ledger.record t ~query:q ~bucket:0 ~count:12 ~at:1.0 ();
  Ledger.record t ~query:q ~bucket:1 ~count:5 ~at:2.0 ();
  Alcotest.(check (float 1e-12)) "over-count capped at expected" 0.75
    (compl t (Ledger.Buckets (0, 1)));
  Alcotest.(check (float 1e-12)) "capped by delivery selection too" 0.75
    (compl t (Ledger.Delivered (0.0, 10.0)));
  Alcotest.(check bool) "expecting 0 contributors is left out" true
    (Float.is_nan (compl ~expected:0 t (Ledger.Buckets (0, 1))))

let test_inclusive_range () =
  let t = Ledger.create [ q ] in
  Ledger.record t ~query:q ~bucket:2 ~count:10 ~at:3.0 ();
  Ledger.record t ~query:q ~bucket:4 ~count:5 ~at:5.0 ();
  Alcotest.(check (list int)) "both ends selected" [ 2; 3; 4 ]
    (List.map fst (Ledger.windows t q (Ledger.Buckets (2, 4))));
  Alcotest.(check (float 0.0)) "lower end alone" 1.0 (compl t (Ledger.Buckets (2, 2)));
  Alcotest.(check (float 0.0)) "upper end alone" 0.5 (compl t (Ledger.Buckets (4, 4)));
  Ledger.record t ~query:"other" ~bucket:2 ~count:1 ~at:3.0 ();
  Alcotest.(check int) "unknown query dropped" 0 (List.length (Ledger.emissions t "other"))

(* Emissions of two queries over buckets 0..5; bucket 0 expects nobody. *)
let emission_gen =
  QCheck.Gen.(
    quad (oneofl [ "a"; "b" ]) (int_range 0 5) (int_range 0 12)
      (map (fun k -> float_of_int k /. 4.0) (int_range 0 40)))

let prop_order_independent =
  QCheck.Test.make ~name:"score independent of record order" ~count:200
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 0 30) emission_gen) int))
    (fun (es, seed) ->
      let rng = Mortar_util.Rng.create seed in
      let shuffled =
        List.map (fun e -> (Mortar_util.Rng.int rng 1_000_000, e)) es
        |> List.sort compare |> List.map snd
      in
      let score es sel =
        let t = Ledger.create [ "a"; "b" ] in
        List.iter (fun (query, bucket, count, at) -> Ledger.record t ~query ~bucket ~count ~at ()) es;
        Ledger.completeness t
          ~queries:[ ("a", fun b -> b * 2); ("b", fun b -> b) ]
          sel
      in
      List.for_all
        (fun sel -> Float.equal (score es sel) (score shuffled sel))
        [ Ledger.Buckets (0, 5); Ledger.Buckets (2, 3); Ledger.Delivered (2.0, 7.5) ])

let tests =
  [
    Alcotest.test_case "straggler re-emission changes nothing" `Quick test_straggler;
    Alcotest.test_case "later equal-count duplicate ignored" `Quick test_equal_count_duplicate;
    Alcotest.test_case "missed window scores 0" `Quick test_missed_window;
    Alcotest.test_case "count capped at expected" `Quick test_cap;
    Alcotest.test_case "bucket range inclusive" `Quick test_inclusive_range;
    QCheck_alcotest.to_alcotest prop_order_independent;
  ]
