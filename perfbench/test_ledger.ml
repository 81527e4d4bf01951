(* The result ledger on hand-built emission lists. *)

let e ?(query = "q") ?(base = 1.0) ~slot ~count ?(age = 0.5) at =
  { Ledger.query; base; slot; count; age; at }

let score ?(lo = 6.0) ?(hi = 11.0) ?(live = fun _ _ -> 100) emissions =
  Ledger.score ~window:1.0 ~lo ~hi ~queries:[ "q" ] ~live emissions

let close = Alcotest.float 1e-12

(* Slots 4..8 of an incarnation installed at 1.0: buckets 5..9, the
   windows ending at 6..10, which are the steady ones by default. *)
let steady ?(count = 100) () = List.init 5 (fun i -> e ~slot:(4 + i) ~count (float_of_int (6 + i)))

let test_straggler () =
  (* A late tuple re-opens slot 5 and the root emits it again carrying
     only the late count: the window keeps its best emission, and the
     re-emission's age is not a sample. *)
  let s = score (steady ~count:90 () @ [ e ~slot:5 ~count:3 ~age:4.0 9.5 ]) in
  Alcotest.(check int) "expected" 5 s.expected;
  Alcotest.(check int) "missed" 0 s.missed;
  Alcotest.check close "completeness" 0.9 s.completeness;
  Alcotest.(check (array (float 0.0))) "ages" (Array.make 5 0.5) s.ages

let test_duplicate () =
  let base = steady () in
  let s = score (base @ base) in
  Alcotest.(check int) "expected" 5 s.expected;
  Alcotest.check close "completeness" 1.0 s.completeness;
  Alcotest.(check int) "samples" 5 (Array.length s.ages)

let test_absent () =
  (* Slot 6 (bucket 7) never arrives: a missed window, scored zero. *)
  let s = score (List.filter (fun (x : Ledger.emission) -> x.slot <> 6) (steady ())) in
  Alcotest.(check int) "expected" 5 s.expected;
  Alcotest.(check int) "missed" 1 s.missed;
  Alcotest.check close "completeness" 0.8 s.completeness;
  Alcotest.(check int) "samples" 4 (Array.length s.ages)

let drop buckets = List.filter (fun x -> not (List.mem (Ledger.bucket ~window:1.0 x) buckets))

let test_trailing_gap () =
  (* The query goes silent after bucket 7: its last two steady windows
     are missed, not left out. *)
  let s = score (drop [ 8; 9 ] (steady ())) in
  Alcotest.(check int) "expected" 5 s.expected;
  Alcotest.(check int) "missed" 2 s.missed;
  Alcotest.check close "completeness" 0.6 s.completeness

let test_leading_gap () =
  let s = score (drop [ 5; 6 ] (steady ())) in
  Alcotest.(check int) "expected" 5 s.expected;
  Alcotest.(check int) "missed" 2 s.missed;
  Alcotest.check close "completeness" 0.6 s.completeness

let test_no_delivery () =
  (* A query that delivered nothing misses every window ending in the
     steady interval: here those ending at 5, 6 and 7. *)
  Alcotest.(check (pair int int)) "buckets" (4, 6) (Ledger.steady_buckets ~window:1.0 ~lo:5.0 ~hi:8.0);
  let s = score ~lo:5.0 ~hi:8.0 [] in
  Alcotest.(check int) "missed" 3 s.missed;
  Alcotest.check close "completeness" 0.0 s.completeness

let test_reinstall () =
  (* A re-plan re-installs the query at 10.0 and its slots restart at
     zero: slots 0..2 of the new incarnation are buckets 10..12, not a
     second copy of buckets 1..3. *)
  let old = List.init 5 (fun i -> e ~slot:(4 + i) ~count:100 (float_of_int (6 + i))) in
  let fresh = List.init 3 (fun i -> e ~base:10.0 ~slot:i ~count:50 (float_of_int (11 + i))) in
  let s = score ~hi:14.0 (old @ fresh) in
  Alcotest.(check int) "expected" 8 s.expected;
  Alcotest.(check int) "missed" 0 s.missed;
  Alcotest.check close "completeness" ((5.0 +. 1.5) /. 8.0) s.completeness

let test_warmup_and_live () =
  (* A window ending before the steady interval stays out even when
     emitted inside it; live counts cap the fraction at one and a
     window expecting nobody is left out. *)
  let live _ b = if b = 9 then 0 else 50 in
  let s = score ~live (e ~slot:3 ~count:100 4.9 :: e ~slot:3 ~count:100 5.5 :: steady ()) in
  Alcotest.(check int) "expected" 4 s.expected;
  Alcotest.check close "completeness" 1.0 s.completeness

let test_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.check close "p50" 2.0 (Ledger.percentile a 0.5);
  Alcotest.check close "max" 4.0 (Ledger.percentile a 1.0);
  Alcotest.(check bool) "empty" true (Float.is_nan (Ledger.percentile [||] 0.5))

let () =
  Alcotest.run "perfbench"
    [
      ( "ledger",
        [
          Alcotest.test_case "straggler re-emission" `Quick test_straggler;
          Alcotest.test_case "duplicate delivery" `Quick test_duplicate;
          Alcotest.test_case "absent window" `Quick test_absent;
          Alcotest.test_case "trailing gap" `Quick test_trailing_gap;
          Alcotest.test_case "leading gap" `Quick test_leading_gap;
          Alcotest.test_case "no steady delivery" `Quick test_no_delivery;
          Alcotest.test_case "re-install incarnation" `Quick test_reinstall;
          Alcotest.test_case "warm-up and live counts" `Quick test_warmup_and_live;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
    ]
