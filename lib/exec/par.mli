(** Kept only because the frozen benchmark suite calls it; removed in the
    next benchmark change. *)

val set_jobs : int -> unit
(** Accepts [1]; raises [Invalid_argument] for any other value. *)
