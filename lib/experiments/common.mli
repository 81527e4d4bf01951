(** Shared infrastructure for the paper-reproduction experiments.

    Each [Fig*] module reproduces one figure from the paper's evaluation
    and registers itself here; the bench harness and the CLI both drive
    experiments through this registry. Experiments print aligned text
    tables (one row per plotted point) so their output can be diffed
    against EXPERIMENTS.md. *)

type experiment = {
  id : string; (** e.g. ["fig12"]. *)
  title : string;
  paper_claim : string; (** The shape the paper reports, for the output header. *)
  run : quick:bool -> unit;
      (** [quick] runs a scaled-down configuration (fewer nodes/trials,
          shorter simulations) for smoke-testing and benches. *)
}

val register : experiment -> unit

val all : unit -> experiment list
(** In registration order. *)

val find : string -> experiment option

val run_all : quick:bool -> experiment list -> unit
(** Print each experiment's banner, then run it, in list order. *)

(** {1 Output helpers} *)

val table : columns:string list -> (unit -> string list list) -> unit
(** Print an aligned table; the thunk supplies rows. *)

val cell_f : float -> string
(** Format a float cell ("12.34"). *)

val cell_pct : float -> string
(** Format a fraction as a percentage cell ("98.7%"). *)
