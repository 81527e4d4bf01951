type experiment = {
  id : string;
  title : string;
  paper_claim : string;
  run : quick:bool -> unit;
}

let registry : experiment list ref = ref []

let register e = registry := !registry @ [ e ]

let all () = !registry

let find id = List.find_opt (fun e -> e.id = id) !registry

let header e =
  Printf.printf "\n=== %s: %s ===\n" e.id e.title;
  Printf.printf "paper: %s\n" e.paper_claim

let run_all ~quick experiments =
  List.iter
    (fun e ->
      header e;
      e.run ~quick)
    experiments

let table ~columns rows_thunk =
  let rows = rows_thunk () in
  let all_rows = columns :: rows in
  let widths =
    List.fold_left
      (fun acc row ->
        List.mapi
          (fun i cell -> max (List.nth acc i) (String.length cell))
          (List.map (fun c -> c) row))
      (List.map String.length columns)
      rows
  in
  ignore all_rows;
  let print_row row =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        Printf.printf "%s%s  " cell (String.make (max 0 (w - String.length cell)) ' '))
      row;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let cell_f x = Printf.sprintf "%.2f" x

let cell_pct x = Printf.sprintf "%.1f%%" (100.0 *. x)
