(** HyperLogLog (Flajolet et al.): [2^b] one-byte registers estimating
    the number of {e distinct} items inserted, with standard error about
    [1.04 / sqrt 2^b] (b = 9 → ~4.6%, b = 11 → ~2.3%).

    Unlike the linear sketches, [merge] is the register-wise {e max} —
    idempotent as well as commutative/associative — so an item observed
    along two paths of a striped multipath tree union counts once. That
    duplicate-insensitivity is what lets distinct-count queries skip the
    time-division machinery entirely. *)

type t

val create : b:int -> seed:int -> t
(** [2^b] registers; requires [4 <= b <= 16]. *)

val b : t -> int

val seed : t -> int

val add : t -> key:int -> unit
(** Insert an item. In place, idempotent. *)

val estimate : t -> float
(** Distinct-count estimate with the small-range (linear counting)
    correction. [0.] for an empty sketch. *)

val merge : t -> t -> t
(** Register-wise max into a fresh sketch; [merge t t] observably equals
    [t]. Raises [Failure] on mismatched parameters. *)

val to_string : t -> string

val of_string : string -> t
(** Raises [Failure] on malformed or non-canonical input, so
    [to_string (of_string s) = s] for every accepted [s]. *)

val max_bytes : b:int -> int
(** Serialized-size cap (dense layout: one byte per register). *)
