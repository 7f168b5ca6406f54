(** Simulated file system.

    Files are named, growable arrays of integer words. All operations are
    offset-addressed ([pread]/[pwrite] style), which is what makes the
    paper's file I/O idempotent (§3.2): re-executing a squashed
    sub-thread's writes lands the same words at the same offsets.

    Like {!Mem}, the file store performs no undo tracking of its own, and
    it has no snapshot: executors route writes through their tracked
    hooks and capture the old word (and old length) in their undo logs,
    which is how both GPRS and CPR roll files back. *)

type file = int
(** File handle: index into the file table. *)

type t

val create : unit -> t

val add_file : t -> name:string -> int array -> file
(** Registers a file with initial contents. Input files are added by the
    program loader; output files typically start empty. The array is
    shared, not copied, until the file's first {!write} or {!truncate},
    so the caller must not mutate it afterwards. *)

val lookup : t -> string -> file option

val size : t -> file -> int
(** Current length in words. *)

val read : t -> file -> off:int -> int
(** Word at [off]; reads past the end return 0 (as from a sparse file). *)

val write : t -> file -> off:int -> int -> unit
(** Writes the word, growing the file if needed. *)

val truncate : t -> file -> int -> unit
(** Sets the length; used to undo length growth during rollback. *)

val contents : t -> file -> int array
(** Copy of the live contents (length [size]). *)
