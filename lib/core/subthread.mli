(** Sub-threads: the unit of ordering, checkpointing and restart.

    The DEX logically divides program threads into sub-threads at
    communication points (§3.2 of the paper). Each sub-thread records:

    - a checkpoint of its thread's restartable state taken at its start
      (registers, pc — the paper's "call stack and processor registers");
    - a copy-on-write undo log of every architectural write it performs
      (the mod-set state in the history buffer);
    - the {e aliases} of the shared data it touched: the dynamic identity
      of locks acquired, atomic variables accessed, condition variables,
      barriers and thread join/exit edges. Aliases drive selective
      restart's dependent walk ("ones that acquired the same lock(s) or
      used the same atomic variable as the excepting sub-thread").
      Aliases are encoded as small-int codes in a growable bitset, so
      {!add_alias} is idempotent O(1) and {!shares_alias} a word-wise
      intersection test.

    The [id] doubles as the sub-thread's position in the deterministic
    total order: ids are allocated in token-grant order.

    Sub-thread records (with their [saved] register buffer and undo log)
    are pooled: {!acquire} recycles a record retired or squashed earlier
    in the run instead of heap-allocating one per boundary — the host-side
    analogue of keeping the paper's per-boundary generation cost t_g
    small. A reference run ([Engine.config.reference]) creates its pool
    with reuse off, so every acquire allocates; both paths are
    observationally identical. *)

type alias =
  | Mutex of int
  | Atomic_var of int
  | Condvar of int
  | Barrier_obj of int
  | Thread_edge of int  (** join/exit communication with thread [tid] *)

type status =
  | Running  (** executing, or parked awaiting its thread's next turn *)
  | Complete of int  (** finished at the given time; awaiting retirement *)
  | Squashed  (** discarded by recovery *)

type t = {
  mutable id : int;  (** creation sequence = position in the total order *)
  mutable tid : int;
  mutable started_at : int;
  mutable status : status;
  mutable alias_bits : int array;
      (** bitset over {!alias_code}s, 32 codes per word; use
          {!add_alias}/{!mem_alias}/{!shares_alias}, not the raw words *)
  mutable alias_words : int;  (** words of [alias_bits] in use *)
  mutable global_dep : bool;
      (** conservative ⊤-alias: opaque calls and non-standard sync outside
          CPR regions conflict with every younger sub-thread *)
  mutable cpr_region : bool;  (** covers a [Cpr_begin]/[Cpr_end] hybrid region *)
  saved : Vm.Tcb.saved;  (** thread state at sub-thread start *)
  mutable held_locks : int list;
      (** mutexes the thread held when this sub-thread's checkpoint was
          taken (a checkpoint can sit inside a critical section — e.g. a
          cond_wait boundary), sorted by descending index. Restoring the
          checkpoint must re-grant them, not release them. *)
  undo : Exec.Undo_log.t;
  mutable forked : int list;  (** tids of threads this sub-thread created *)
  mutable pending_mutex : int option;
      (** set when the checkpoint was taken while the thread was queued to
          (re-)acquire a mutex — a condvar wake-sub whose sleeper had not
          yet got the mutex back. Restoring such a checkpoint must re-join
          the mutex queue (or take the mutex if free), not run. *)
  mutable freed_blocks : (int * int) list;
      (** (addr, size) blocks this sub-thread freed. Frees are
          {e quarantined}: the block re-enters the allocator only when
          this sub-thread retires, so no unsquashed sub-thread can ever
          hold memory whose free might still be rolled back. *)
}

val make : id:int -> tid:int -> now:int -> saved:Vm.Tcb.saved -> t
(** A fresh, unpooled record (tests and the pool-miss path). *)

val add_alias : t -> alias -> unit
(** Idempotent constant-time insert. *)

val mem_alias : t -> alias -> bool

val shares_alias : t -> t -> bool
(** True when the alias sets intersect, or either side is [global_dep]. *)

val aliases : t -> alias list
(** Decoded alias set in ascending code order, for display/tests. *)

val clear_aliases : t -> unit

val is_complete : t -> bool

val completion_time : t -> int option

(** {1 Accumulated alias sets}

    The selective-squash walk tests each younger sub-thread against the
    union of every already-squashed alias set; folding the union into one
    accumulator makes each test O(words) instead of O(squashed x words). *)

type aset

val aset_create : unit -> aset

val aset_add : aset -> t -> unit
(** Union [sub]'s aliases (and its [global_dep] flag) into the set. *)

val aset_shares : aset -> t -> bool
(** Equivalent to [List.exists (fun u -> shares_alias u s) added], where
    [added] are the sub-threads folded in so far (assuming at least one). *)

(** {1 Pooling} *)

type pool
(** Per-engine-run free list of sub-thread records. Never shared across
    runs: register/barrier buffer shapes are per-program. *)

val pool_create : ?reuse:bool -> unit -> pool
(** [reuse] (default [true]): whether {!release}d records are parked for
    later {!acquire}s; off, every acquire allocates a fresh record. *)

val acquire :
  pool -> id:int -> tid:int -> now:int -> tcb:Vm.Tcb.t -> t
(** A [Running] sub-thread whose [saved] snapshot is captured from [tcb];
    recycles a released record when the pool reuses (blitting into its
    existing buffers), else allocates. *)

val release : pool -> t -> unit
(** Return a retired or squashed record to the pool. The record is
    scrubbed immediately — alias bits, undo log, freed blocks, fork and
    lock lists — so no squashed state can survive into its next life.
    The caller must have dropped every external reference (ROL slot,
    current-sub table, [current_undo]). *)

val pool_stats : pool -> int * int * int
(** [(hits, misses, live high-water)] — recycled vs allocated acquires
    and the peak number of simultaneously outstanding records. *)

val pp_alias : Format.formatter -> alias -> unit

val pp : Format.formatter -> t -> unit
