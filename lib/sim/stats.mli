(** Run statistics.

    Lightweight counters and summaries accumulated by the executors and
    reported by the experiment drivers. A {!t} is a string-keyed bag so
    subsystems can record their own measures (e.g. ["rol.max_depth"],
    ["cpr.checkpoints"], ["wal.appends"]) without a central registry. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Add 1 to a counter, creating it at 0 first if needed. *)

val counter : t -> string -> int ref
(** The counter cell itself (created at 0 if absent). Dispatch loops
    cache this to keep per-instruction accounting off the hashtable. *)

val add : t -> string -> int -> unit
(** Add an arbitrary amount to a counter. *)

type handle
(** A counter resolved once, for hot paths: bumping it hashes no key.
    The counter is created at the first bump, so a handle that is never
    bumped leaves no key behind (unlike {!counter}). *)

val handle : t -> string -> handle
val bump : handle -> unit

type sampler
(** The {!observe} counterpart of {!handle}: the summary is resolved
    once and created at the first sample. *)

val sampler : t -> string -> sampler
val sample : sampler -> float -> unit

val set_max : t -> string -> int -> unit
(** Keep the running maximum of the values fed in. *)

val observe : t -> string -> float -> unit
(** Feed a sample into a summary (count / sum / min / max). *)

val get : t -> string -> int
(** Counter value; 0 when never touched. *)

val mean : t -> string -> float
(** Mean of observed samples; 0 when never observed. *)

val count : t -> string -> int
(** Number of samples fed into [observe]. *)

val merge_into : dst:t -> t -> unit
(** Fold counters and summaries of the source into [dst]. *)

val to_assoc : t -> (string * float) list
(** Flat snapshot, counters as floats, summaries as their means; sorted by
    key for stable output. *)

val pp : Format.formatter -> t -> unit
