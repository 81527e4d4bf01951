(* Tests for the deployment harness and wire-message accounting. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Msg = Mortar_core.Msg
module Value = Mortar_core.Value
module Rng = Mortar_util.Rng

let deploy ?(hosts = 24) ?(seed = 61) ?offsets ?skews () =
  let rng = Rng.create (seed * 3) in
  let topo = Mortar_net.Topology.transit_stub rng ~transits:4 ~stubs:6 ~hosts () in
  D.create_sharded ~seed ?offsets ?skews topo

let test_deployment_basics () =
  let d = deploy () in
  Alcotest.(check int) "hosts" 24 (D.hosts d);
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (D.now d);
  D.run_until d 5.0;
  Alcotest.(check (float 1e-9)) "advances" 5.0 (D.now d)

let test_deployment_failure_helpers () =
  let d = deploy () in
  let victims = D.fail_random d ~fraction:0.25 ~protect:[ 0 ] () in
  Alcotest.(check int) "a quarter failed" 6 (List.length victims);
  Alcotest.(check bool) "root protected" false (List.mem 0 victims);
  Alcotest.(check int) "up count" 18 (List.length (D.up_hosts d));
  D.reconnect_all d;
  Alcotest.(check int) "all back" 24 (List.length (D.up_hosts d))

let test_deployment_sensor_jitter () =
  let d = deploy () in
  let seen = ref 0 in
  (* A sensor with no subscribed query still injects without error. *)
  D.sensor d ~node:3 ~stream:"s" ~period:0.5 ~jitter:0.1 (fun k ->
      incr seen;
      Value.Int k);
  D.run_until d 10.0;
  Alcotest.(check bool)
    (Printf.sprintf "roughly 20 ticks (%d)" !seen)
    true
    (!seen >= 15 && !seen <= 25)

let test_deployment_skewed_timer () =
  (* A fast clock (positive skew) runs its local timers early in true
     time: a peer with +10% skew sees ~11 local seconds in 10 true ones. *)
  let skews = Array.make 24 0.0 in
  skews.(5) <- 0.1;
  let d = deploy ~skews () in
  D.run_until d 10.0;
  let local =
    (* Read through the peer runtime via digest-independent behavior: we
       can't reach the runtime directly, so check the clock math. *)
    Mortar_sim.Clock.local_time (Mortar_sim.Clock.create ~skew:0.1 ()) ~now:10.0
  in
  Alcotest.(check (float 1e-9)) "local ahead" 11.0 local

let test_plan_requires_coordinates () =
  let d = deploy () in
  Alcotest.check_raises "no coordinates yet"
    (Invalid_argument "Deployment.coordinates: call converge_coordinates first") (fun () ->
      ignore (D.plan d ~root:0 ~nodes:[| 1; 2; 3 |] ()))

let test_msg_wire_sizes_monotone () =
  let small =
    Msg.Data
      {
        query = "q";
        seqno = 1;
        tree = 0;
        summary =
          Mortar_core.Summary.make
            ~index:(Mortar_core.Index.of_slot ~slide:1.0 0)
            ~value:(Value.Int 1) ~count:1 ();
        visited = [ (0, 1) ];
        path = [ 1 ];
        ttl_down = 0;
        digest = "d";
      }
  in
  let big =
    Msg.Data
      {
        query = "a-much-longer-query-name";
        seqno = 1;
        tree = 0;
        summary =
          Mortar_core.Summary.make
            ~index:(Mortar_core.Index.of_slot ~slide:1.0 0)
            ~value:(Value.List (List.init 50 (fun i -> Value.Int i)))
            ~count:1 ();
        visited = [ (0, 1); (1, 2); (2, 3); (3, 4) ];
        path = [ 1; 2; 3; 4; 5 ];
        ttl_down = 0;
        digest = "d";
      }
  in
  Alcotest.(check bool) "bigger payload, bigger wire size" true
    (Msg.wire_size big > Msg.wire_size small);
  Alcotest.(check string) "data kind" "data" (Msg.kind small);
  Alcotest.(check string) "heartbeat kind" "heartbeat" (Msg.kind (Msg.Heartbeat { digest = None }))

let test_install_message_size_scales_with_chunk () =
  let rng = Rng.create 67 in
  let nodes = Array.init 63 (fun i -> i + 1) in
  let ts = Mortar_overlay.Treeset.random rng ~bf:4 ~d:2 ~root:0 ~nodes in
  let meta =
    Mortar_core.Query.make_meta ~name:"q" ~source:"s" ~op:Mortar_core.Op.Sum
      ~window:(Mortar_core.Window.tumbling 1.0) ~root:0 ~total_nodes:64 ()
  in
  let size chunks =
    let plan = Mortar_core.Query.chunk_plan ts ~chunks in
    let c = List.hd plan in
    Msg.wire_size (Msg.Install { meta; members = c.Mortar_core.Query.members; edges = c.Mortar_core.Query.edges; age = 0.0 })
  in
  Alcotest.(check bool) "16 chunks smaller than 1" true (size 16 < size 1)

let test_harness_smoke () =
  let h = Mortar_experiments.Harness.create (Small_scenario.peer_count ~hosts:32 ()) in
  Mortar_experiments.Harness.run_until h 30.0;
  let rows = Mortar_experiments.Harness.results_between h 15.0 30.0 in
  Alcotest.(check bool) "results recorded" true (List.length rows > 5);
  let c = Mortar_experiments.Harness.mean_completeness h 15.0 30.0 ~denominator:32 in
  Alcotest.(check bool) (Printf.sprintf "completeness high (%.2f)" c) true (c > 0.9);
  Alcotest.(check bool) "union bound full" true (Mortar_experiments.Harness.union_bound h = 32);
  Alcotest.(check bool) "bandwidth accounted" true
    (Mortar_emul.Deployment.mbps (Mortar_experiments.Harness.deployment h) 15.0 30.0 > 0.0)

let tests =
  [
    Alcotest.test_case "deployment basics" `Quick test_deployment_basics;
    Alcotest.test_case "failure helpers" `Quick test_deployment_failure_helpers;
    Alcotest.test_case "sensor jitter" `Quick test_deployment_sensor_jitter;
    Alcotest.test_case "skewed timers" `Quick test_deployment_skewed_timer;
    Alcotest.test_case "plan requires coordinates" `Quick test_plan_requires_coordinates;
    Alcotest.test_case "msg wire sizes" `Quick test_msg_wire_sizes_monotone;
    Alcotest.test_case "install size scales" `Quick test_install_message_size_scales_with_chunk;
    Alcotest.test_case "harness smoke" `Slow test_harness_smoke;
  ]
