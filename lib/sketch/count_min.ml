type t = { depth : int; width : int; seed : int; cells : int array }

let create ~depth ~width ~seed =
  if depth <= 0 || depth > 255 then Codec.fail "count-min depth out of range";
  if width <= 0 || width > 65535 then Codec.fail "count-min width out of range";
  if seed < 0 then Codec.fail "count-min seed must be non-negative";
  { depth; width; seed; cells = Array.make (depth * width) 0 }

let depth t = t.depth

let width t = t.width

let seed t = t.seed

let[@lint.hot] add t ~key ~w =
  let d = t.depth and wd = t.width in
  let cells = t.cells in
  for r = 0 to d - 1 do
    let h = Hash.hash_int ~seed:(Hash.row_seed ~seed:t.seed ~row:r) key in
    let i = (r * wd) + (h mod wd) in
    Array.unsafe_set cells i (Array.unsafe_get cells i + w)
  done

let[@lint.hot] query t ~key =
  let d = t.depth and wd = t.width in
  let cells = t.cells in
  let best = ref max_int in
  for r = 0 to d - 1 do
    let h = Hash.hash_int ~seed:(Hash.row_seed ~seed:t.seed ~row:r) key in
    let c = Array.unsafe_get cells ((r * wd) + (h mod wd)) in
    if c < !best then best := c
  done;
  if !best = max_int then 0 else !best

let total t =
  let acc = ref 0 in
  for i = 0 to t.width - 1 do
    acc := !acc + t.cells.(i)
  done;
  !acc

let compatible a b =
  Int.equal a.depth b.depth && Int.equal a.width b.width && Int.equal a.seed b.seed

let zip f a b =
  if not (compatible a b) then Codec.fail "count-min merge across mismatched parameters";
  { a with cells = Array.mapi (fun i x -> f x b.cells.(i)) a.cells }

let merge a b = zip ( + ) a b

let sub a b = zip ( - ) a b

(* Wire layout: 'C' depth:u8 width:u16 seed:i64, then the row-major
   cell grid in {!Codec.put_cells}'s dense-or-sparse form. The form is a
   pure function of the cell contents (sparse iff strictly smaller), so
   equal sketches — however their merges were ordered — share one wire
   form, and the decoder rejects any other form. *)
let header_bytes = 13

let max_bytes ~depth ~width = header_bytes + (4 * depth * width)

let to_string t =
  let b = Buffer.create (max_bytes ~depth:t.depth ~width:t.width) in
  Buffer.add_char b 'C';
  Codec.put_u8 b t.depth;
  Codec.put_u16 b t.width;
  Codec.put_i64 b t.seed;
  Codec.put_cells b t.cells;
  Buffer.contents b

let of_string s =
  let r = Codec.reader s in
  if Codec.u8 r <> Char.code 'C' then Codec.fail "not a count-min sketch";
  let depth = Codec.u8 r in
  let width = Codec.u16 r in
  let seed = Codec.i64 r in
  let t = create ~depth ~width ~seed in
  Codec.read_cells r t.cells;
  Codec.expect_end r;
  t
