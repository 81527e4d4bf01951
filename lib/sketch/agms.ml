type t = { rows : int; cols : int; seed : int; cells : int array }

let create ~rows ~cols ~seed =
  if rows <= 0 || rows > 255 then Codec.fail "agms rows out of range";
  if cols <= 0 || cols > 65535 then Codec.fail "agms cols out of range";
  if seed < 0 then Codec.fail "agms seed must be non-negative";
  { rows; cols; seed; cells = Array.make (rows * cols) 0 }

let rows t = t.rows

let cols t = t.cols

let seed t = t.seed

(* One avalanche per row serves both draws: the low bits pick the
   bucket, bit 40 the sign — independent enough after {!Hash.mix} and
   half the hashing cost of two seeded draws per row. *)
let[@lint.hot] add t ~key ~w =
  let rs = t.rows and cs = t.cols in
  let cells = t.cells in
  for r = 0 to rs - 1 do
    let h = Hash.hash_int ~seed:(Hash.row_seed ~seed:t.seed ~row:r) key in
    let i = (r * cs) + (h mod cs) in
    let signed = if (h lsr 40) land 1 = 1 then w else -w in
    Array.unsafe_set cells i (Array.unsafe_get cells i + signed)
  done

let second_moment t =
  let per_row = Array.make t.rows 0.0 in
  for r = 0 to t.rows - 1 do
    let acc = ref 0.0 in
    for c = 0 to t.cols - 1 do
      let x = float_of_int t.cells.((r * t.cols) + c) in
      acc := !acc +. (x *. x)
    done;
    per_row.(r) <- !acc
  done;
  Array.sort Float.compare per_row;
  let n = t.rows in
  if n land 1 = 1 then per_row.(n / 2)
  else (per_row.((n / 2) - 1) +. per_row.(n / 2)) /. 2.0

let compatible a b =
  Int.equal a.rows b.rows && Int.equal a.cols b.cols && Int.equal a.seed b.seed

let merge a b =
  if not (compatible a b) then Codec.fail "agms merge across mismatched parameters";
  { a with cells = Array.mapi (fun i x -> x + b.cells.(i)) a.cells }

(* Same wire discipline as {!Count_min}: 'A' rows:u8 cols:u16 seed:i64,
   then the cells in {!Codec.put_cells}'s canonical form. *)
let header_bytes = 13

let max_bytes ~rows ~cols = header_bytes + (4 * rows * cols)

let to_string t =
  let b = Buffer.create (max_bytes ~rows:t.rows ~cols:t.cols) in
  Buffer.add_char b 'A';
  Codec.put_u8 b t.rows;
  Codec.put_u16 b t.cols;
  Codec.put_i64 b t.seed;
  Codec.put_cells b t.cells;
  Buffer.contents b

let of_string s =
  let r = Codec.reader s in
  if Codec.u8 r <> Char.code 'A' then Codec.fail "not an agms sketch";
  let rows = Codec.u8 r in
  let cols = Codec.u16 r in
  let seed = Codec.i64 r in
  let t = create ~rows ~cols ~seed in
  Codec.read_cells r t.cells;
  Codec.expect_end r;
  t
