let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else sum xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (acc /. float_of_int (n - 1))
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    if n = 1 then sorted.(0)
    else begin
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
    end
  end

let median xs = percentile xs 50.0

let minimum xs = Array.fold_left min infinity xs

let maximum xs = Array.fold_left max neg_infinity xs

let histogram xs ~bins =
  assert (bins > 0);
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let lo = minimum xs and hi = maximum xs in
    let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
    let counts = Array.make bins 0 in
    Array.iter
      (fun x ->
        let i = int_of_float ((x -. lo) /. width) in
        let i = if i >= bins then bins - 1 else if i < 0 then 0 else i in
        counts.(i) <- counts.(i) + 1)
      xs;
    Array.mapi (fun i c -> (lo +. (float_of_int i *. width), c)) counts
  end

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

let summarize xs =
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = minimum xs;
    p50 = percentile xs 50.0;
    p90 = percentile xs 90.0;
    p99 = percentile xs 99.0;
    max = maximum xs;
  }

