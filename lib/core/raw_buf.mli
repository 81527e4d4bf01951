(** A time-window source's buffered raw tuples, in arrival order.

    Stored column-wise: a tuple costs three array slots rather than a list
    cell, a record and a boxed float, and the columns keep their capacity
    from one window to the next, so steady buffering allocates nothing but
    the payloads. *)

type t

val create : unit -> t

val push : t -> basis:float -> prov:(int * int) list -> Value.t -> unit
(** Append one tuple stamped with its basis time. *)

val fold :
  t ->
  lo:float ->
  hi:float ->
  ('a -> basis:float -> payload:Value.t -> prov:(int * int) list -> 'a) ->
  'a ->
  'a
(** Fold, oldest first, over the tuples whose basis lies in [\[lo, hi)]. *)

val drop_before : t -> float -> unit
(** Forget the tuples whose basis is below the bound, keeping the others
    in order. *)
