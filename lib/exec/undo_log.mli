(** Copy-on-write undo log over the simulated architectural state.

    One log captures the pre-images of everything written during a
    recovery epoch — a GPRS sub-thread, or a CPR inter-checkpoint
    interval. The first write to each location records its old value
    (copy-on-write, the paper's alternative to compiler-derived mod-sets,
    §3.2); replaying the log in reverse restores the state exactly as it
    was when the log was opened.

    Locations span all architectural state a squashed computation may have
    touched: shared-memory words, atomic variables, simulated file words
    and file lengths. *)

type key =
  | K_mem of int  (** shared-memory address *)
  | K_atomic of int  (** atomic variable *)
  | K_file of int * int
      (** (file, offset); file ids must lie in [0, 2{^20}) and offsets in
          a signed 41-bit range, or {!note} raises [Invalid_argument] *)
  | K_file_len of int  (** file length *)

type t

val create : ?paged:Vm.Mem.t -> unit -> t
(** A fresh log. With [?paged], memory first-writes are detected through
    [mem]'s per-word dirty epoch ({!Vm.Mem.touch}) and only {e counted} —
    no pre-image entries are kept for them, because the owner restores
    data words page-wise via {!Vm.Mem.restore_image}. Non-memory keys
    (atomics, files) always keep full pre-image entries. The paged
    variant requires log intervals to stay in lockstep with the memory's
    dirty epochs: open a fresh log exactly when an epoch is advanced by
    {!Vm.Mem.capture}/{!Vm.Mem.restore_image}. *)

val reset : t -> unit
(** Drop every recorded pre-image, leaving the log as fresh as
    {!create} while keeping its internal capacity. Used when a pooled
    sub-thread recycles its log: a recycled log must carry nothing from
    its previous life. *)

val note : t -> key -> old:int -> bool
(** Record the pre-image of [key] unless this log already holds one.
    Returns [true] when the entry was recorded (a "first write"), which is
    when the executor charges the copy-on-write cost. *)

val size : t -> int
(** Number of recorded pre-images (words of checkpoint state). *)

val is_empty : t -> bool

val replay :
  mem:Vm.Mem.t -> atomics:int array -> io:Vm.Io.t -> t -> int
(** Undo all recorded writes, newest first; returns the number of words
    restored (for paged logs this includes the counted memory touches,
    whose data the caller restores via {!Vm.Mem.restore_image}). The log
    is left empty and reusable. *)

val keys : t -> key list
(** Recorded locations, newest first; for tests. *)
