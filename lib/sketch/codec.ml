type reader = { s : string; mutable pos : int }

let reader s = { s; pos = 0 }

let fail msg = failwith ("sketch: " ^ msg)

let need r n = if r.pos + n > String.length r.s then fail "truncated sketch"

let u8 r =
  need r 1;
  let v = String.get_uint8 r.s r.pos in
  r.pos <- r.pos + 1;
  v

let u16 r =
  need r 2;
  let v = String.get_uint16_be r.s r.pos in
  r.pos <- r.pos + 2;
  v

let i32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_be r.s r.pos) in
  r.pos <- r.pos + 4;
  v

let i64 r =
  need r 8;
  let v64 = String.get_int64_be r.s r.pos in
  r.pos <- r.pos + 8;
  if Int64.compare v64 0L < 0 || Int64.compare v64 (Int64.of_int max_int) > 0 then
    fail "seed out of range";
  Int64.to_int v64

let expect_end r = if r.pos <> String.length r.s then fail "trailing bytes"

let put_u8 b v = Buffer.add_uint8 b v

let put_u16 b v = Buffer.add_uint16_be b v

let put_i32 b v =
  if v > 0x7FFFFFFF || v < -0x7FFFFFFF - 1 then fail "cell overflows 32 bits"
  else Buffer.add_int32_be b (Int32.of_int v)

let put_i64 b v = Buffer.add_int64_be b (Int64.of_int v)

(* The linear sketches' cell grids: tag 0 then every cell as i32, or
   tag 1 then count:i32 and ascending index:i32 value:i32 pairs of the
   non-zero cells, whichever is strictly smaller. *)
let nonzero cells = Array.fold_left (fun acc c -> if c <> 0 then acc + 1 else acc) 0 cells

let sparse_cells ~n ~nnz = 4 + (8 * nnz) < 4 * n

let put_cells b cells =
  let nnz = nonzero cells in
  if sparse_cells ~n:(Array.length cells) ~nnz then begin
    put_u8 b 1;
    put_i32 b nnz;
    Array.iteri
      (fun i c ->
        if c <> 0 then begin
          put_i32 b i;
          put_i32 b c
        end)
      cells
  end
  else begin
    put_u8 b 0;
    Array.iter (put_i32 b) cells
  end

let read_cells r cells =
  let n = Array.length cells in
  match u8 r with
  | 0 ->
    for i = 0 to n - 1 do
      cells.(i) <- i32 r
    done;
    if sparse_cells ~n ~nnz:(nonzero cells) then fail "dense cells where sparse is smaller"
  | 1 ->
    let nnz = i32 r in
    if nnz < 0 || nnz > n then fail "bad sparse cell count";
    if not (sparse_cells ~n ~nnz) then fail "sparse cells where dense is smaller";
    let prev = ref (-1) in
    for _ = 1 to nnz do
      let i = i32 r in
      if i <= !prev || i >= n then fail "sparse index out of order";
      prev := i;
      let v = i32 r in
      if v = 0 then fail "zero cell in sparse form";
      cells.(i) <- v
    done
  | _ -> fail "unknown cell codec tag"
