(** Byte-exact serialization helpers shared by the sketch codecs.

    Every sketch serializes through these fixed-width big-endian writers,
    so a partial's wire form is a pure function of its cell contents —
    the property the cross-shard byte-identity tests lean on. Readers
    raise [Failure] with a [sketch:]-prefixed message on truncated or
    out-of-range input; the operator layer turns that into a
    {!Mortar_core.Value.Type_error} (a query fault, not a crash). *)

type reader

val reader : string -> reader

val fail : string -> 'a
(** [fail msg] raises [Failure ("sketch: " ^ msg)]. *)

val u8 : reader -> int

val u16 : reader -> int

val i64 : reader -> int
(** Seeds travel as 64 bits; the top bit must be clear (seeds are
    non-negative native ints). *)

val expect_end : reader -> unit
(** Rejects trailing bytes — two distinct wire strings never decode to
    the same sketch. *)

val put_u8 : Buffer.t -> int -> unit

val put_u16 : Buffer.t -> int -> unit

val put_i64 : Buffer.t -> int -> unit

(** {2 Cell grids}

    Count-Min and AGMS share one layout for their [int] cells: a tag
    byte, then either every cell as i32 (tag 0, dense) or the non-zero
    cells as a count:i32 and ascending index:i32 value:i32 pairs (tag 1,
    sparse). The form is canonical: sparse iff strictly smaller for
    these cells. *)

val put_cells : Buffer.t -> int array -> unit

val read_cells : reader -> int array -> unit
(** Fills the (zeroed) grid. Raises [Failure] on the non-canonical
    form, a zero sparse cell, or a sparse index out of order or range,
    so [put_cells] of the result reproduces the input bytes exactly. *)
