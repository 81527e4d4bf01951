(* The few JSON renderings the output needs: numbers keep every digit
   ([%.17g] round-trips a float), and non-finite values become null. *)

let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let str s = "\"" ^ String.escaped s ^ "\""
