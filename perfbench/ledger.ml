type emission = {
  query : string;
  base : float;
  slot : int;
  count : int;
  age : float;
  at : float;
}

let bucket ~window e = e.slot + int_of_float (Float.round (e.base /. window))

type score = { expected : int; missed : int; completeness : float; ages : float array }

(* The best emission of a (query, bucket) pair so far. *)
type best = { count : int; age : float; best_at : float }

let steady_buckets ~window ~lo ~hi =
  (int_of_float (Float.ceil (lo /. window)) - 1, int_of_float (Float.ceil (hi /. window)) - 2)

let score ~window ~lo ~hi ~queries ~live emissions =
  let pairs = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      let key = (e.query, bucket ~window e) in
      match Hashtbl.find_opt pairs key with
      | Some b when not (e.count > b.count || (e.count = b.count && e.at < b.best_at)) -> ()
      | _ -> Hashtbl.replace pairs key { count = e.count; age = e.age; best_at = e.at })
    emissions;
  let first, last = steady_buckets ~window ~lo ~hi in
  let expected = ref 0 and missed = ref 0 and frac = ref 0.0 and ages = ref [] in
  List.iter
    (fun q ->
      for b = first to last do
        let n = live q b in
        if n > 0 then begin
          incr expected;
          match Hashtbl.find_opt pairs (q, b) with
          | None -> incr missed
          | Some best ->
            frac := !frac +. (float_of_int (min best.count n) /. float_of_int n);
            ages := best.age :: !ages
        end
      done)
    (List.sort_uniq compare queries);
  let ages = Array.of_list !ages in
  Array.sort compare ages;
  {
    expected = !expected;
    missed = !missed;
    completeness = (if !expected = 0 then nan else !frac /. float_of_int !expected);
    ages;
  }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
