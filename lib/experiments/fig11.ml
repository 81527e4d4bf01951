(* Figure 11 (§7.1): query installation rate and coverage when a fraction
   of the node set is unreachable during the install multicast. 680 nodes,
   16 chunks; unreachable nodes reconnect at t = 30 s and reconciliation
   (every third heartbeat, i.e. every 6 s) installs them eventually.
   Paper: <10 s to install all 680 without failures; with 40% unreachable,
   54.5% of all nodes are installed before the reconnect, and coverage
   climbs back as reconciliation runs. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer

let failure_levels = [ 0.0; 0.1; 0.2; 0.3; 0.4 ]

let one_run ~quick ~failure =
  let hosts = if quick then 240 else 680 in
  (* The peer-count deployment without sensors: only the install runs. *)
  let s = Scenario.peer_count ~seed:121 ~hosts in
  let s = Scenario.map_metas (fun m -> { m with name = "install-test" }) s in
  let { Scenario.d; _ } =
    Scenario.build { s with topology = { s.topology with seed = 1213 }; sensors = [] }
  in
  D.at d 0.5 (fun () -> ignore (D.fail_random d ~fraction:failure ~protect:[ 0 ] ()));
  D.at d 30.0 (fun () -> D.reconnect_all d);
  (* Sample installed coverage every second. *)
  let samples = Hashtbl.create 64 in
  let rec sample t =
    if t <= 60.0 then
      D.at d t (fun () ->
          let installed = ref 0 in
          for i = 0 to hosts - 1 do
            if Peer.has_query (D.peer d i) "install-test" then incr installed
          done;
          Hashtbl.replace samples (int_of_float t) (float_of_int !installed /. float_of_int hosts);
          sample (t +. 1.0))
  in
  sample 1.0;
  D.run_until d 61.0;
  samples

let run ~quick =
  let runs = List.map (fun f -> (f, one_run ~quick ~failure:f)) failure_levels in
  let times = [ 2; 4; 6; 8; 10; 15; 20; 25; 30; 33; 36; 40; 45; 50; 55; 60 ] in
  Common.table
    ~columns:
      ("t(s)"
      :: List.map (fun f -> Printf.sprintf "%.0f%% failed" (100.0 *. f)) failure_levels)
    (fun () ->
      List.map
        (fun t ->
          string_of_int t
          :: List.map
               (fun (_, samples) ->
                 Common.cell_pct (Option.value (Hashtbl.find_opt samples t) ~default:nan))
               runs)
        times)

let experiment =
  {
    Common.id = "fig11";
    title = "Query installation rate and coverage with unreachable nodes";
    paper_claim =
      "no failures: all nodes installed in <10 s; 40% unreachable: 54.5% coverage \
       before reconnect at 30 s, then reconciliation completes the install";
    run;
  }

let register () = Common.register experiment
