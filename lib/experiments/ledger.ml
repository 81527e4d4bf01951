type 'a emission = { bucket : int; count : int; at : float; data : 'a }

type 'a log = {
  mutable all : 'a emission list; (* newest first *)
  best : (int, 'a emission) Hashtbl.t;
}

(* The key set is fixed at [create]; afterwards only the logs mutate. *)
type 'a t = (string, 'a log) Hashtbl.t

let create queries =
  let t = Hashtbl.create 64 in
  List.iter (fun q -> Hashtbl.replace t q { all = []; best = Hashtbl.create 32 }) queries;
  t

let beats e b = e.count > b.count || (e.count = b.count && e.at < b.at)

let record t ~query ~bucket ~count ~at data =
  match Hashtbl.find_opt t query with
  | None -> ()
  | Some log ->
    let e = { bucket; count; at; data } in
    log.all <- e :: log.all;
    (match Hashtbl.find_opt log.best bucket with
    | Some b when not (beats e b) -> ()
    | _ -> Hashtbl.replace log.best bucket e)

let emissions t query =
  match Hashtbl.find_opt t query with None -> [] | Some log -> List.rev log.all

let best t query bucket =
  match Hashtbl.find_opt t query with None -> None | Some log -> Hashtbl.find_opt log.best bucket

type selection = Buckets of int * int | Delivered of float * float

let windows t query = function
  | Buckets (lo, hi) -> List.init (max 0 (hi - lo + 1)) (fun i -> (lo + i, best t query (lo + i)))
  | Delivered (t0, t1) -> (
    match Hashtbl.find_opt t query with
    | None -> []
    | Some log ->
      Hashtbl.fold
        (fun b e acc -> if e.at >= t0 && e.at < t1 then (b, Some e) :: acc else acc)
        log.best []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

let completeness t ~queries sel =
  let n = ref 0 and acc = ref 0.0 in
  List.iter
    (fun (query, expected) ->
      List.iter
        (fun (bucket, e) ->
          let want = expected bucket in
          if want > 0 then begin
            let got = match e with Some e -> min e.count want | None -> 0 in
            incr n;
            acc := !acc +. (float_of_int got /. float_of_int want)
          end)
        (windows t query sel))
    queries;
  if !n = 0 then nan else !acc /. float_of_int !n
