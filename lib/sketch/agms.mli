(** AGMS "tug-of-war" sketch (Alon, Gilbert, Matias & Szegedy, as
    bucketized by Cormode & Garofalakis): [rows] independent vectors of
    [cols] signed counters estimating the second frequency moment F2
    (self-join size) of the inserted multiset.

    Each insert adds [±w] to one counter per row; a row's estimate is
    the sum of its squared counters (variance ~ 2·F2²/cols) and the
    sketch answers with the median across rows. Linear like Count-Min:
    [merge] adds the counters exactly. *)

type t

val create : rows:int -> cols:int -> seed:int -> t
(** Requires [0 < rows <= 255] and [0 < cols <= 65535]. *)

val rows : t -> int

val cols : t -> int

val seed : t -> int

val add : t -> key:int -> w:int -> unit

val second_moment : t -> float
(** Median-of-rows F2 estimate. [0.] for an empty sketch. *)

val merge : t -> t -> t
(** Raises [Failure] on mismatched parameters. *)

val to_string : t -> string

val of_string : string -> t
(** Raises [Failure] on malformed or non-canonical input, so
    [to_string (of_string s) = s] for every accepted [s]. *)

val max_bytes : rows:int -> cols:int -> int
(** Serialized-size cap (dense layout). *)
