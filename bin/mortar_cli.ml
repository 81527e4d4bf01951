(* The mortar command-line tool.

   - [mortar experiments [--quick] [ID ...]] reruns the paper's evaluation
     (all experiments, or selected by id);
   - [mortar list] shows the experiment registry;
   - [mortar run QUERY.msl [--hosts N] [--duration S]] compiles a Mortar
     Stream Language program, deploys it on a simulated federation, feeds
     a synthetic sensor stream, and prints the root's results — the
     quickest way to play with the system. *)

open Cmdliner
module Obs = Mortar_obs.Obs

let setup_registry () = Mortar_experiments.Registry.ensure ()

(* ------------------------------------------------------------------ *)
(* Observability sinks, shared by `experiments` and `run`: when either
   output is requested, turn the default registry on for the duration
   and dump it afterwards as JSON lines. *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the metrics registry (counters, gauges, histograms) as JSON lines.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the structured event trace (sim-time stamped) as JSON lines.")

(* Execution width of the sharded simulation runtime. Output is
   byte-identical for every value (the logical decomposition is fixed by
   the topology); this only sets how many domains run shard slices. *)
let shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Run the simulation on $(docv) domains (OCaml 5 only; 1 = sequential). Results \
           are byte-identical for any N.")

let set_shards n = Mortar_emul.Deployment.default_domains := max 1 n

(* A converter that accepts only the values [ok] admits: anything else is
   a usage error (exit 124), like a malformed number. *)
let checked conv ~what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let count_arg = checked Arg.int ~what:"an integer >= 1" (fun n -> n >= 1)

let finite_arg ~positive =
  checked Arg.float
    ~what:(if positive then "a finite number > 0" else "a finite number >= 0")
    (fun x -> Float.is_finite x && if positive then x > 0.0 else x >= 0.0)

let with_obs ~metrics_out ~trace_out f =
  if metrics_out <> None || trace_out <> None then begin
    Obs.enabled := true;
    Obs.Reg.clear Obs.default
  end;
  let r = f () in
  Option.iter (fun p -> Obs.write_lines p (Obs.Reg.metrics_lines Obs.default)) metrics_out;
  Option.iter (fun p -> Obs.write_lines p (Obs.Reg.trace_lines Obs.default)) trace_out;
  r

(* ------------------------------------------------------------------ *)
(* experiments                                                          *)

let experiments_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Scaled-down configurations (fast).")
  in
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List registered experiments (id and description) and exit.")
  in
  let planner =
    Arg.(
      value
      & opt (some (enum [ ("naive", `Naive); ("shared", `Shared) ])) None
      & info [ "planner" ] ~docv:"MODE"
          ~doc:
            "Restrict the mlq experiment to one planning mode: $(b,naive) (a private tree \
             set per query) or $(b,shared) (the multi-query planner). Default: run both \
             and compare.")
  in
  let queries =
    Arg.(
      value
      & opt (some count_arg) None
      & info [ "queries" ] ~docv:"N"
          ~doc:"Run the mlq experiment at a single concurrent-query count instead of its \
                built-in ladder.")
  in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let run quick shards metrics_out trace_out list_flag planner queries ids =
    setup_registry ();
    set_shards shards;
    let module Common = Mortar_experiments.Common in
    let module Mlq = Mortar_experiments.Mlq in
    (* [--planner] and [--queries] narrow the mlq entry alone. *)
    let restrict (e : Common.experiment) =
      if e.id <> Mlq.experiment.id then e
      else { e with run = (fun ~quick -> Mlq.run ?planner ?queries ~quick ()) }
    in
    if list_flag then begin
      List.iter
        (fun (e : Common.experiment) -> Printf.printf "%-10s %s\n" e.id e.title)
        (Common.all ());
      `Ok ()
    end
    else
      let missing = List.filter (fun id -> Common.find id = None) ids in
      if missing <> [] then `Error (false, "unknown experiment(s): " ^ String.concat ", " missing)
      else begin
        let selected = if ids = [] then Common.all () else List.filter_map Common.find ids in
        with_obs ~metrics_out ~trace_out (fun () ->
            Common.run_all ~quick (List.map restrict selected));
        `Ok ()
      end
  in
  let info =
    Cmd.info "experiments" ~doc:"Reproduce the paper's figures (tables on stdout)."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ quick $ shards_arg $ metrics_out_arg $ trace_out_arg $ list_flag
       $ planner $ queries $ ids))

let list_cmd =
  let run () =
    setup_registry ();
    List.iter
      (fun (e : Mortar_experiments.Common.experiment) ->
        Printf.printf "%-8s %s\n" e.id e.title)
      (Mortar_experiments.Common.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List reproduction experiments.") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* run: deploy an MSL program on a simulated federation                 *)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"QUERY.msl" ~doc:"MSL program.")
  in
  let hosts =
    Arg.(value & opt count_arg 64 & info [ "hosts" ] ~doc:"Number of simulated peers (>= 1).")
  in
  let duration =
    Arg.(
      value
      & opt (finite_arg ~positive:false) 30.0
      & info [ "duration" ] ~doc:"Simulated seconds to run (>= 0).")
  in
  let sensor_rate =
    Arg.(
      value
      & opt (finite_arg ~positive:true) 1.0
      & info [ "rate" ] ~doc:"Sensor tuples per second per node (> 0).")
  in
  let run file hosts duration sensor_rate shards metrics_out trace_out =
    Mortar_wifi.Wifi.register_trilat ();
    set_shards shards;
    let text =
      let ic = open_in file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Mortar_core.Msl.parse text with
    | exception Mortar_core.Msl.Parse_error { line; message } ->
      `Error (false, Printf.sprintf "%s:%d: %s" file line message)
    | program -> (
      let module D = Mortar_emul.Deployment in
      let module Msl = Mortar_core.Msl in
      let module Scenario = Mortar_experiments.Scenario in
      let metas = Msl.query_metas program ~root:0 ~total_nodes:hosts () in
      let outside = function
        | Msl.All -> false
        | Msl.Nodes l -> List.exists (fun n -> n < 0 || n >= hosts) l
      in
      match List.find_opt (fun (_, nodes) -> outside nodes) metas with
      | Some ((meta : Mortar_core.Query.meta), _) ->
        `Error
          (false, Printf.sprintf "%s: query %s names a node outside 0..%d" file meta.name (hosts - 1))
      | None ->
      with_obs ~metrics_out ~trace_out @@ fun () ->
      (* Every node feeds a synthetic [Ramp] sensor into each stream the
         program sources but does not define. Scalar payloads feed
         aggregates directly and still expose a "value" field to
         select/map expressions. *)
      let sources =
        List.filter_map
          (function
            | Msl.Derived_stream { source; _ } | Msl.Query_def { source; _ } ->
              if List.exists (fun s -> Msl.statement_name s = source) program then None
              else Some source)
          program
        |> List.sort_uniq compare
      in
      let { Scenario.d; _ } =
        Scenario.build
          {
            topology = { seed = 2024; hosts; transits = 4; stubs = max 4 (hosts / 20) };
            deployment =
              {
                seed = 2024;
                config = Mortar_core.Peer.default_config;
                loss = 0.0;
                offsets = None;
                skews = None;
              };
            tree_sets =
              List.map
                (fun (_, nodes) ->
                  {
                    Scenario.root = 0;
                    members = (match nodes with Msl.All -> All | Msl.Nodes l -> Only l);
                    bf = min 16 (max 2 (hosts / 8));
                    degree = 4;
                    shape = Planned `Cluster_shuffle;
                  })
                metas;
            planner = None;
            sensors =
              List.map
                (fun stream ->
                  { Scenario.stream; period = 1.0 /. sensor_rate; hosts = All; value = Ramp })
                sources;
            queries =
              List.mapi (fun i (meta, _) -> { Scenario.meta; tree_set = i; at = 1.0 }) metas;
            faults = [];
            churn = None;
          }
      in
      Mortar_core.Peer.on_result (D.peer d 0) (fun (r : Mortar_core.Peer.result) ->
          Printf.printf "[%8.2fs] %s slot=%d count=%d value=%s\n" (D.now d) r.query r.slot
            r.count (Mortar_core.Value.show r.value));
      D.run_until d duration;
      `Ok ())
  in
  let info = Cmd.info "run" ~doc:"Run an MSL program on a simulated federation." in
  Cmd.v info
    Term.(
      ret
        (const run $ file $ hosts $ duration $ sensor_rate $ shards_arg $ metrics_out_arg
       $ trace_out_arg))

let main =
  let info =
    Cmd.info "mortar" ~version:"1.0.0"
      ~doc:"Mortar: wide-scale data stream management (reproduction)"
  in
  Cmd.group info [ experiments_cmd; list_cmd; run_cmd ]

let () = exit (Cmd.eval main)
