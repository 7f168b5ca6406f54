(** Copy-on-write undo log over the simulated architectural state.

    A log is a history buffer: pre-images in write order, each at an
    absolute position that never changes. It fills at the end in
    {e dedup epochs} — the first write to each location in an epoch
    records its old value (copy-on-write, the paper's alternative to
    compiler-derived mod-sets, §3.2) — retires from the head
    ({!drop_before}) and is squashed from the tail ({!replay_from}).

    GPRS keeps one log per thread: each sub-thread opens an epoch with
    {!mark} and remembers its position. A thread's sub-threads retire
    oldest first and selective restart squashes every younger sub-thread
    of a squashed one's thread, so a sub-thread's mod-set is always the
    span from its mark to the next one, and squashing a thread's losers
    newest first is a series of suffix replays. P-CPR keeps one paged log
    per checkpoint interval and replays it whole ({!replay}).

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
(** A fresh log with one epoch open at position 0. With [?paged], memory
    first-writes are detected through [mem]'s per-word dirty epoch
    ({!Vm.Mem.touch}) and only {e counted} — no pre-image entries are
    kept for them, because the owner restores data words page-wise via
    {!Vm.Mem.restore_image}. Non-memory keys (atomics, files) always keep
    full pre-image entries. The paged variant requires log intervals to
    stay in lockstep with the memory's dirty epochs: {!reset} the log
    exactly when an epoch is advanced by
    {!Vm.Mem.capture}/{!Vm.Mem.restore_image}. *)

val reset : t -> unit
(** Drop every recorded pre-image and open a fresh epoch, keeping the
    log's capacity: a recycled log carries nothing from its previous
    life. Positions keep counting up from the current end. *)

val note : t -> key -> old:int -> bool
(** Record the pre-image of [key] at the end unless the open epoch
    already holds one. Returns [true] when the entry was recorded (a
    "first write"), which is when the executor charges the copy-on-write
    cost. *)

val mark : t -> int
(** Open a fresh dedup epoch at the end and return its position: the
    first write to each location after it is recorded again. *)

val replay_from :
  mem:Vm.Mem.t -> atomics:int array -> io:Vm.Io.t -> t -> from:int -> int
(** Undo the entries at positions [from] and above, newest first, drop
    them, and open a fresh epoch at [from]; returns the number undone.
    Paged memory touches are not positional: they stay counted. Raises
    [Invalid_argument] if [from] lies before the first kept entry or
    past the end. *)

val drop_before : t -> int -> unit
(** Forget the entries before position [pos] (their work committed). The
    open epoch stays open: a location it already noted is not recorded
    again. Raises [Invalid_argument] as {!replay_from}. *)

val size : t -> int
(** Number of kept pre-images plus counted paged touches (words of
    checkpoint state). *)

val is_empty : t -> bool

val replay :
  mem:Vm.Mem.t -> atomics:int array -> io:Vm.Io.t -> t -> int
(** Undo every kept entry, newest first, then {!reset}; returns {!size}
    as it was (for paged logs this includes the counted memory touches,
    whose data the caller restores via {!Vm.Mem.restore_image}). *)

val keys : t -> key list
(** Kept locations, newest first; for tests. *)
