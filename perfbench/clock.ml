(* Host timings. [now] is the monotonic clock, at nanosecond
   resolution, so even sub-microsecond phases read as measured. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)
