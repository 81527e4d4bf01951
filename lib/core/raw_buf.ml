type t = {
  mutable basis : float array;
  mutable payload : Value.t array;
  mutable prov : (int * int) list array;
  mutable len : int;
}

let create () = { basis = [||]; payload = [||]; prov = [||]; len = 0 }

let grow t =
  let cap = max 4 (2 * t.len) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.basis <- extend t.basis 0.0;
  t.payload <- extend t.payload Value.Null;
  t.prov <- extend t.prov []

let push t ~basis ~prov payload =
  if t.len = Array.length t.basis then grow t;
  t.basis.(t.len) <- basis;
  t.payload.(t.len) <- payload;
  t.prov.(t.len) <- prov;
  t.len <- t.len + 1

let fold t ~lo ~hi f acc =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    let basis = t.basis.(i) in
    if basis >= lo && basis < hi then
      acc := f !acc ~basis ~payload:t.payload.(i) ~prov:t.prov.(i)
  done;
  !acc

let drop_before t bound =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    if t.basis.(i) >= bound then begin
      let j = !kept in
      t.basis.(j) <- t.basis.(i);
      t.payload.(j) <- t.payload.(i);
      t.prov.(j) <- t.prov.(i);
      kept := j + 1
    end
  done;
  (* Cleared slots must not keep dropped payloads alive. *)
  Array.fill t.payload !kept (t.len - !kept) Value.Null;
  Array.fill t.prov !kept (t.len - !kept) [];
  t.len <- !kept
