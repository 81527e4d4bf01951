(* The command line rejects out-of-range values as usage errors (exit
   124 with a message), never as a crash or a silent wrong run. *)

let mortar = "../bin/mortar_cli.exe"

let run args =
  let err = Filename.temp_file "mortar_cli" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2> %s" mortar args Filename.null (Filename.quote err))
  in
  let ic = open_in err in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (code, text)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_bad_values () =
  List.iter
    (fun (args, why) ->
      let code, err = run args in
      Alcotest.(check int) (args ^ ": exit code") 124 code;
      Alcotest.(check bool) (args ^ ": no internal error") false (contains err "internal error");
      Alcotest.(check bool) (args ^ ": says why") true (contains err why))
    [
      ("run cli/readme.msl --hosts 0", "invalid value");
      ("run cli/readme.msl --hosts=-5", "invalid value");
      ("run cli/readme.msl --rate 0", "invalid value");
      ("run cli/readme.msl --rate=-1", "invalid value");
      ("run cli/readme.msl --rate nan", "invalid value");
      ("run cli/readme.msl --duration=-3", "invalid value");
      ("run cli/readme.msl --duration inf", "invalid value");
      ("run cli/outside.msl --hosts 4", "names a node outside 0..3");
      ("experiments --quick mlq --queries 0", "invalid value");
    ]

let tests = [ Alcotest.test_case "bad values are usage errors" `Quick test_bad_values ]
