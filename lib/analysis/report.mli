(** ASCII rendering of experiment results.

    The experiment drivers return structured {!figure} values; this module
    prints them as the rows/series the paper's tables and figures report.
    Bars are execution times relative to the Pthreads baseline (1.00);
    DNC entries render as the paper prints them. *)

type bar = { label : string; value : float; dnc : bool }

type row = { row_name : string; bars : bar list }

type figure = {
  id : string;  (** e.g. ["Fig. 8a"] *)
  title : string;
  rows : row list;
  notes : string list;
}

val harmonic_mean : float list -> float
(** The paper reports harmonic means over per-program normalized times. *)

val hm_row : figure -> row option
(** Harmonic mean across rows, per bar label; [None] when rows have
    mismatched bars or any DNC (a DNC makes the mean meaningless). DNC
    bars are skipped per-label, as in the paper. *)

val fmt_bar : bar -> string
(** A bar's cell: its value to two decimals, or ["DNC"]. *)

val render_figure : Format.formatter -> figure -> unit

val render_table :
  Format.formatter -> title:string -> header:string list -> string list list -> unit
(** Generic aligned table with a header rule. *)

val render_bar_chart : Format.formatter -> figure -> unit
(** Horizontal ASCII bars, one per (row, bar), like the paper's grouped
    bar charts. Bars are clipped at 4.0x with a [">"] marker; DNC renders
    as a full clipped bar tagged [DNC]. *)
