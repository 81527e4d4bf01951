(* The sketch merge laws the in-network aggregation relies on.

   A sketch partial travels up a striped multipath tree, merging with
   siblings in whatever order loss and scheduling produce. The laws
   under test are exactly what the routing layer assumes:

   - merge is commutative and associative (any merge tree, one answer);
   - merge-then-query equals query-on-union — exactly for the linear
     sketches (Count-Min, AGMS), within the advertised error for HLL;
   - serialization is a pure function of the cell contents, so equal
     sketches are byte-identical however they were built (this is what
     makes the --shards 1 vs --shards 4 contract hold for sketch
     queries — see Test_parallel);
   - the codec rejects truncated, oversized, mistagged and
     non-canonical inputs instead of constructing a corrupt sketch, so
     every accepted string re-encodes to itself;
   - a source window's in-place fold equals the per-tuple lift/merge
     fold on wire bytes;
   - the Op layer wraps all failures as type faults, never crashes. *)

module Cm = Mortar_sketch.Count_min
module Agms = Mortar_sketch.Agms
module Hll = Mortar_sketch.Hll
module Op = Mortar_core.Op
module Value = Mortar_core.Value

(* Key lists span empty → large so both sparse and dense wire forms are
   exercised (4x32 Count-Min goes dense around 60 distinct keys). *)
let keys_gen = QCheck.Gen.(list_size (int_range 0 300) (int_range 0 500))

let cm_of keys =
  let t = Cm.create ~depth:4 ~width:32 ~seed:11 in
  List.iter (fun k -> Cm.add t ~key:k ~w:1) keys;
  t

let agms_of keys =
  let t = Agms.create ~rows:5 ~cols:32 ~seed:11 in
  List.iter (fun k -> Agms.add t ~key:k ~w:1) keys;
  t

let hll_of ?(b = 9) keys =
  let t = Hll.create ~b ~seed:11 in
  List.iter (fun k -> Hll.add t ~key:k) keys;
  t

let pair_gen = QCheck.make QCheck.Gen.(pair keys_gen keys_gen)

let triple_gen = QCheck.make QCheck.Gen.(triple keys_gen keys_gen keys_gen)

(* ------------------------------------------------------------------ *)
(* Merge laws, compared on wire bytes: stronger than comparing query
   answers, and exactly the property the determinism contract needs. *)

let prop_comm name of_keys to_string merge =
  QCheck.Test.make ~name:(name ^ " merge commutative (bytes)") ~count:100 pair_gen
    (fun (ka, kb) ->
      let a = of_keys ka and b = of_keys kb in
      String.equal (to_string (merge a b)) (to_string (merge b a)))

let prop_assoc name of_keys to_string merge =
  QCheck.Test.make ~name:(name ^ " merge associative (bytes)") ~count:100 triple_gen
    (fun (ka, kb, kc) ->
      let a = of_keys ka and b = of_keys kb and c = of_keys kc in
      String.equal (to_string (merge (merge a b) c)) (to_string (merge a (merge b c))))

let prop_union name of_keys to_string merge =
  QCheck.Test.make ~name:(name ^ " merge = sketch of union (bytes)") ~count:100 pair_gen
    (fun (ka, kb) ->
      let a = of_keys ka and b = of_keys kb in
      String.equal (to_string (merge a b)) (to_string (of_keys (ka @ kb))))

let prop_roundtrip name of_keys to_string of_string =
  QCheck.Test.make ~name:(name ^ " codec round-trip (bytes)") ~count:100
    (QCheck.make keys_gen) (fun keys ->
      let t = of_keys keys in
      let w1 = to_string t in
      (* decode → re-encode is the identity, and re-encoding the same
         value twice gives the same bytes (no hidden state). *)
      String.equal w1 (to_string (of_string w1)) && String.equal w1 (to_string t))

let prop_hll_idempotent =
  QCheck.Test.make ~name:"hll merge idempotent (bytes)" ~count:100 (QCheck.make keys_gen)
    (fun keys ->
      let t = hll_of keys in
      String.equal (Hll.to_string (Hll.merge t t)) (Hll.to_string t))

let prop_cm_query_bounds =
  QCheck.Test.make ~name:"cm query overestimates, total exact" ~count:100
    (QCheck.make keys_gen) (fun keys ->
      let t = cm_of keys in
      let exact = Hashtbl.create 64 in
      List.iter
        (fun k ->
          Hashtbl.replace exact k (1 + Option.value (Hashtbl.find_opt exact k) ~default:0))
        keys;
      Cm.total t = List.length keys
      && Hashtbl.fold (fun k c ok -> ok && Cm.query t ~key:k >= c) exact true)

(* ------------------------------------------------------------------ *)
(* Accuracy at the advertised error, deterministic seeds. *)

let test_hll_accuracy () =
  (* b=12: 4096 registers, standard error 1.04/sqrt(4096) = 1.6%. *)
  let t = Hll.create ~b:12 ~seed:3 in
  for k = 1 to 10_000 do
    Hll.add t ~key:k
  done;
  let est = Hll.estimate t in
  let err = Float.abs (est -. 10_000.0) /. 10_000.0 in
  if err > 0.05 then Alcotest.failf "hll estimate %.1f off by %.1f%%" est (100.0 *. err)

let test_hll_small_range () =
  (* Linear-counting regime: tiny cardinalities stay near-exact. *)
  let t = Hll.create ~b:10 ~seed:3 in
  List.iter (fun k -> Hll.add t ~key:k) [ 1; 2; 3; 4; 5; 3; 2; 1 ];
  let est = Hll.estimate t in
  if Float.abs (est -. 5.0) > 0.5 then Alcotest.failf "hll small-range estimate %.2f" est

let test_agms_accuracy () =
  (* 1000 tuples over a skewed domain; F2 within the ~2/sqrt(cols)
     envelope for this fixed seed. *)
  let t = Agms.create ~rows:7 ~cols:64 ~seed:3 in
  let exact = Hashtbl.create 64 in
  for i = 0 to 999 do
    let k = i mod 50 in
    let k = if i mod 3 = 0 then k mod 7 else k in
    Agms.add t ~key:k ~w:1;
    Hashtbl.replace exact k (1 + Option.value (Hashtbl.find_opt exact k) ~default:0)
  done;
  let f2 =
    Hashtbl.fold (fun _ c acc -> acc +. (float_of_int c *. float_of_int c)) exact 0.0
  in
  let est = Agms.second_moment t in
  let err = Float.abs (est -. f2) /. f2 in
  if err > 0.30 then Alcotest.failf "agms f2 %.0f vs exact %.0f (%.0f%%)" est f2 (100.0 *. err)

(* ------------------------------------------------------------------ *)
(* Codec rejection. *)

let expect_failure name f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Failure _ -> ()

(* Hand-built wire strings, in either form whatever the cells hold:
   Count-Min / AGMS grids (magic, two dims, seed, tagged cells) and HLL
   registers. [sparse] lists (index, value) pairs verbatim. *)
let put_i32 b v = Buffer.add_int32_be b (Int32.of_int v)

let grid_wire ~magic ~d1 ~d2 ~seed cells =
  let b = Buffer.create 64 in
  Buffer.add_char b magic;
  Buffer.add_uint8 b d1;
  Buffer.add_uint16_be b d2;
  Buffer.add_int64_be b (Int64.of_int seed);
  (match cells with
  | `Dense cells ->
    Buffer.add_uint8 b 0;
    List.iter (put_i32 b) cells
  | `Sparse pairs ->
    Buffer.add_uint8 b 1;
    put_i32 b (List.length pairs);
    List.iter
      (fun (i, v) ->
        put_i32 b i;
        put_i32 b v)
      pairs);
  Buffer.contents b

let hll_wire ~b:bits ~seed regs =
  let b = Buffer.create 64 in
  Buffer.add_char b 'H';
  Buffer.add_uint8 b bits;
  Buffer.add_int64_be b (Int64.of_int seed);
  (match regs with
  | `Dense regs ->
    Buffer.add_uint8 b 0;
    List.iter (Buffer.add_uint8 b) regs
  | `Sparse pairs ->
    Buffer.add_uint8 b 1;
    Buffer.add_uint16_be b (List.length pairs);
    List.iter
      (fun (i, v) ->
        Buffer.add_uint16_be b i;
        Buffer.add_uint8 b v)
      pairs);
  Buffer.contents b

let test_codec_rejects () =
  let cm = cm_of [ 1; 2; 3 ] in
  let wire = Cm.to_string cm in
  expect_failure "truncated" (fun () -> Cm.of_string (String.sub wire 0 (String.length wire - 1)));
  expect_failure "trailing bytes" (fun () -> Cm.of_string (wire ^ "\x00"));
  expect_failure "wrong magic" (fun () -> Agms.of_string wire);
  expect_failure "empty" (fun () -> Hll.of_string "");
  expect_failure "mismatched merge" (fun () ->
      Cm.merge cm (Cm.create ~depth:4 ~width:64 ~seed:11));
  expect_failure "bad create" (fun () -> Hll.create ~b:2 ~seed:1);
  (* Non-canonical forms: each decodes to a sketch whose encoding is a
     different string. 2x4 grids: sparse is canonical up to 3 non-zero
     cells (4 + 8 * 3 < 32). *)
  let cm_wire = grid_wire ~magic:'C' ~d1:2 ~d2:4 ~seed:7 in
  let agms_wire = grid_wire ~magic:'A' ~d1:2 ~d2:4 ~seed:7 in
  ignore (Cm.of_string (cm_wire (`Sparse [ (0, 1); (5, 2) ])));
  expect_failure "cm zero sparse cell" (fun () -> Cm.of_string (cm_wire (`Sparse [ (0, 1); (5, 0) ])));
  expect_failure "agms zero sparse cell" (fun () -> Agms.of_string (agms_wire (`Sparse [ (3, 0) ])));
  expect_failure "cm dense where sparse is smaller" (fun () ->
      Cm.of_string (cm_wire (`Dense [ 1; 0; 0; 0; 0; 2; 0; 0 ])));
  expect_failure "agms dense where sparse is smaller" (fun () ->
      Agms.of_string (agms_wire (`Dense [ 0; 0; 0; 0; 0; 0; 0; 0 ])));
  let full = List.init 8 (fun i -> (i, i + 1)) in
  expect_failure "cm sparse where dense is smaller" (fun () -> Cm.of_string (cm_wire (`Sparse full)));
  expect_failure "agms sparse where dense is smaller" (fun () ->
      Agms.of_string (agms_wire (`Sparse full)));
  (* b=4: 16 registers, sparse is canonical up to 4 non-zero (2 + 3 * 4 < 16). *)
  let regs_with nz = List.init 16 (fun i -> if List.mem_assoc i nz then List.assoc i nz else 0) in
  ignore (Hll.of_string (hll_wire ~b:4 ~seed:7 (`Sparse [ (2, 3) ])));
  expect_failure "hll dense where sparse is smaller" (fun () ->
      Hll.of_string (hll_wire ~b:4 ~seed:7 (`Dense (regs_with [ (2, 3) ]))));
  expect_failure "hll sparse where dense is smaller" (fun () ->
      Hll.of_string (hll_wire ~b:4 ~seed:7 (`Sparse (List.init 5 (fun i -> (i, 1))))))

(* Every accepted string is canonical: decode then re-encode gives the
   same bytes. Inputs are hand-built in both forms over small grids,
   with zero-heavy cells, unsorted or repeated sparse indices and
   either form whatever the cells hold, so acceptance and rejection are
   both common. *)
let small = QCheck.Gen.oneofl [ 0; 0; 0; 0; 1; 2; -1; 63; 64 ]

let grid_gen =
  QCheck.Gen.(
    let n = 8 in
    oneof
      [
        map (fun cells -> `Dense cells) (list_repeat n small);
        map
          (fun pairs -> `Sparse (List.sort_uniq (fun (i, _) (j, _) -> Int.compare i j) pairs))
          (list_size (int_range 0 n) (pair (int_range 0 (n - 1)) small));
        map (fun pairs -> `Sparse pairs) (list_size (int_range 0 4) (pair (int_range (-1) n) small));
      ])

let hll_regs_gen =
  QCheck.Gen.(
    let m = 16 in
    oneof
      [
        map (fun regs -> `Dense regs) (list_repeat m small);
        map
          (fun pairs -> `Sparse (List.sort_uniq (fun (i, _) (j, _) -> Int.compare i j) pairs))
          (list_size (int_range 0 8) (pair (int_range 0 (m - 1)) small));
      ])

let canonical of_string to_string s =
  match of_string s with
  | t -> String.equal (to_string t) s
  | exception Failure _ -> true

let prop_canonical name gen wire of_string to_string =
  QCheck.Test.make ~name:(name ^ " decoder accepts only canonical bytes") ~count:500
    (QCheck.make gen) (fun form -> canonical of_string to_string (wire form))

(* Flipping one byte of a real encoding must never yield an accepted
   non-canonical string either. *)
let prop_canonical_mutated name of_keys to_string of_string =
  QCheck.Test.make ~name:(name ^ " mutated encodings stay canonical") ~count:300
    (QCheck.make QCheck.Gen.(triple keys_gen nat (int_range 0 255)))
    (fun (keys, pos, byte) ->
      let w = Bytes.of_string (to_string (of_keys keys)) in
      Bytes.set_uint8 w (pos mod Bytes.length w) byte;
      canonical of_string to_string (Bytes.to_string w))

let test_wire_caps () =
  (* The planner charges state_wire_size as the worst case; the dense
     form must never exceed it. *)
  let cm = cm_of (List.init 5_000 (fun i -> i)) in
  Alcotest.(check bool) "cm within cap" true
    (String.length (Cm.to_string cm) <= Cm.max_bytes ~depth:4 ~width:32);
  let h = hll_of ~b:9 (List.init 5_000 (fun i -> i)) in
  Alcotest.(check bool) "hll within cap" true
    (String.length (Hll.to_string h) <= Hll.max_bytes ~b:9)

(* ------------------------------------------------------------------ *)
(* The Op wrapping: Value-level lift/merge/finalize, fault behavior. *)

let test_op_hll () =
  let impl = Op.compile (Op.Sketch_hll { b = 9; seed = 5 }) in
  let lifted =
    List.fold_left
      (fun acc i -> impl.Op.merge acc (impl.Op.lift (Value.Int i)))
      impl.Op.init
      (List.init 500 (fun i -> i mod 100))
  in
  match impl.Op.finalize lifted with
  | Value.Float est ->
    if Float.abs (est -. 100.0) /. 100.0 > 0.15 then
      Alcotest.failf "op hll estimate %.1f" est
  | v -> Alcotest.failf "op hll finalized to %s" (Value.show v)

let test_op_merge_order_bytes () =
  (* Same tuples, opposite merge order: byte-identical packed result —
     the property the parallel engine's contract inherits. *)
  let impl = Op.compile (Op.Sketch_count_min { depth = 4; width = 32; seed = 5 }) in
  let parts = List.init 20 (fun i -> impl.Op.lift (Value.Int (i mod 7))) in
  let fwd = List.fold_left impl.Op.merge impl.Op.init parts in
  let bwd = List.fold_left impl.Op.merge impl.Op.init (List.rev parts) in
  Alcotest.(check bool) "identical bytes" true (Value.equal fwd bwd);
  (* Null is the identity on both sides. *)
  Alcotest.(check bool) "null left id" true (Value.equal (impl.Op.merge impl.Op.init fwd) fwd);
  Alcotest.(check bool) "null right id" true (Value.equal (impl.Op.merge fwd impl.Op.init) fwd)

let test_op_faults () =
  let impl = Op.compile (Op.Sketch_count_min { depth = 4; width = 32; seed = 5 }) in
  let bad () = ignore (impl.Op.merge (impl.Op.lift (Value.Int 1)) (Value.Str "garbage")) in
  (match bad () with
  | () -> Alcotest.fail "garbage accepted"
  | exception Value.Type_error _ -> ());
  (* Mismatched parameters fault as a type error, not a crash. *)
  let other = Op.compile (Op.Sketch_count_min { depth = 4; width = 64; seed = 5 }) in
  match impl.Op.merge (impl.Op.lift (Value.Int 1)) (other.Op.lift (Value.Int 2)) with
  | _ -> Alcotest.fail "mismatched sketch accepted"
  | exception Value.Type_error _ -> ()

(* ------------------------------------------------------------------ *)
(* The source-window fold: one in-place sketch per window must equal,
   byte for byte, the per-tuple lift/merge fold it replaced. *)

let sketch_specs =
  [
    Op.Sketch_count_min { depth = 4; width = 32; seed = 5 };
    Op.Sketch_agms { rows = 5; cols = 16; seed = 5 };
    Op.Sketch_hll { b = 11; seed = 5 };
  ]

(* Wire bytes of a partial: the packed string for a sketch, the
   marshalled value otherwise (exact down to float bits). *)
let wire = function
  | Value.Str s -> s
  | v -> Marshal.to_string v [ Marshal.No_sharing ]

let lift_merge (impl : Op.impl) payloads =
  List.fold_left (fun acc v -> impl.Op.merge acc (impl.Op.lift v)) impl.Op.init payloads

let payload_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> Value.Int k) (int_range 0 500);
        map (fun k -> Value.Record [ ("k", Value.Int k) ]) (int_range 0 500);
        map (fun k -> Value.Str (string_of_int k)) (int_range 0 50);
        map (fun f -> Value.Float f) (float_range (-10.0) 10.0);
      ])

let prop_window_fold spec =
  let impl = Op.compile spec in
  QCheck.Test.make
    ~name:(Format.asprintf "%a window fold = lift/merge fold (bytes)" Op.pp_spec spec)
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 300) payload_gen))
    (fun payloads ->
      let folded = Op.fold impl ~on_fault:(fun () -> assert false) Fun.id payloads in
      String.equal (wire folded) (wire (lift_merge impl payloads)))

(* A source buffers [Op.raw_payload] forms, not the tuples: folding
   either must give the same bytes. *)
let prop_raw_payload spec =
  let impl = Op.compile spec in
  QCheck.Test.make
    ~name:(Format.asprintf "%a fold of buffered forms = fold of tuples (bytes)" Op.pp_spec spec)
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 300) payload_gen))
    (fun payloads ->
      let fold items = wire (Op.fold impl ~on_fault:(fun () -> assert false) Fun.id items) in
      String.equal (fold payloads) (fold (List.map (Op.raw_payload impl) payloads)))

let test_window_fold_edges () =
  List.iter
    (fun spec ->
      let impl = Op.compile spec in
      let check name payloads =
        let folded = Op.fold impl ~on_fault:(fun () -> Alcotest.fail "fault") Fun.id payloads in
        Alcotest.(check string)
          (Format.asprintf "%a %s" Op.pp_spec spec name)
          (wire (lift_merge impl payloads)) (wire folded)
      in
      check "empty" [];
      check "singleton" [ Value.Record [ ("k", Value.Int 42) ] ];
      (* A full sketch-churn window: 125 tuples over a small domain. *)
      check "125 tuples" (List.init 125 (fun i -> Value.Record [ ("k", Value.Int (i * i mod 97)) ])))
    sketch_specs;
  (* The fold reads payloads through its accessor, not the items. *)
  let impl = Op.compile (List.hd sketch_specs) in
  let items = List.init 10 (fun i -> (i, Value.Int i)) in
  Alcotest.(check string) "payload accessor"
    (wire (lift_merge impl (List.map snd items)))
    (wire (Op.fold impl ~on_fault:ignore snd items))

let test_sketch_key_no_alloc () =
  let v = Value.Record [ ("k", Value.Int 42) ] in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc lxor Op.sketch_key v
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "key" 0 !acc;
  if words > 100.0 then Alcotest.failf "sketch_key allocated %.0f words over 10k calls" words

let test_state_wire_size () =
  let cap spec =
    match Op.state_wire_size spec with Some c -> c | None -> Alcotest.fail "no cap"
  in
  Alcotest.(check bool) "cm cap positive" true
    (cap (Op.Sketch_count_min { depth = 4; width = 32; seed = 5 }) > 0);
  Alcotest.(check (option int)) "sum has no cap" None (Op.state_wire_size Op.Sum)

let tests =
  [
    QCheck_alcotest.to_alcotest (prop_comm "cm" cm_of Cm.to_string Cm.merge);
    QCheck_alcotest.to_alcotest (prop_assoc "cm" cm_of Cm.to_string Cm.merge);
    QCheck_alcotest.to_alcotest (prop_union "cm" cm_of Cm.to_string Cm.merge);
    QCheck_alcotest.to_alcotest (prop_roundtrip "cm" cm_of Cm.to_string Cm.of_string);
    QCheck_alcotest.to_alcotest prop_cm_query_bounds;
    QCheck_alcotest.to_alcotest (prop_comm "agms" agms_of Agms.to_string Agms.merge);
    QCheck_alcotest.to_alcotest (prop_assoc "agms" agms_of Agms.to_string Agms.merge);
    QCheck_alcotest.to_alcotest (prop_union "agms" agms_of Agms.to_string Agms.merge);
    QCheck_alcotest.to_alcotest (prop_roundtrip "agms" agms_of Agms.to_string Agms.of_string);
    QCheck_alcotest.to_alcotest (prop_comm "hll" hll_of Hll.to_string Hll.merge);
    QCheck_alcotest.to_alcotest (prop_assoc "hll" hll_of Hll.to_string Hll.merge);
    QCheck_alcotest.to_alcotest (prop_union "hll" hll_of Hll.to_string Hll.merge);
    QCheck_alcotest.to_alcotest (prop_roundtrip "hll" hll_of Hll.to_string Hll.of_string);
    QCheck_alcotest.to_alcotest prop_hll_idempotent;
    Alcotest.test_case "hll accuracy at b=12" `Quick test_hll_accuracy;
    Alcotest.test_case "hll small-range correction" `Quick test_hll_small_range;
    Alcotest.test_case "agms f2 accuracy" `Quick test_agms_accuracy;
    Alcotest.test_case "codec rejects malformed input" `Quick test_codec_rejects;
    QCheck_alcotest.to_alcotest
      (prop_canonical "cm" grid_gen (grid_wire ~magic:'C' ~d1:2 ~d2:4 ~seed:7) Cm.of_string
         Cm.to_string);
    QCheck_alcotest.to_alcotest
      (prop_canonical "agms" grid_gen (grid_wire ~magic:'A' ~d1:2 ~d2:4 ~seed:7) Agms.of_string
         Agms.to_string);
    QCheck_alcotest.to_alcotest
      (prop_canonical "hll" hll_regs_gen (hll_wire ~b:4 ~seed:7) Hll.of_string Hll.to_string);
    QCheck_alcotest.to_alcotest (prop_canonical_mutated "cm" cm_of Cm.to_string Cm.of_string);
    QCheck_alcotest.to_alcotest
      (prop_canonical_mutated "agms" agms_of Agms.to_string Agms.of_string);
    QCheck_alcotest.to_alcotest (prop_canonical_mutated "hll" hll_of Hll.to_string Hll.of_string);
    Alcotest.test_case "wire size within planner cap" `Quick test_wire_caps;
    Alcotest.test_case "op-level hll" `Quick test_op_hll;
    Alcotest.test_case "op merge order byte-identical" `Quick test_op_merge_order_bytes;
    Alcotest.test_case "op faults are type errors" `Quick test_op_faults;
    Alcotest.test_case "state wire size caps" `Quick test_state_wire_size;
    Alcotest.test_case "window fold edges (bytes)" `Quick test_window_fold_edges;
    Alcotest.test_case "sketch_key does not allocate" `Quick test_sketch_key_no_alloc;
  ]
  @ List.map (fun spec -> QCheck_alcotest.to_alcotest (prop_window_fold spec)) sketch_specs
  @ List.map (fun spec -> QCheck_alcotest.to_alcotest (prop_raw_payload spec)) sketch_specs
