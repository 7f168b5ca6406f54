(** Sub-threads: the unit of ordering, checkpointing and restart.

    The DEX logically divides program threads into sub-threads at
    communication points (§3.2 of the paper). Each sub-thread records:

    - a checkpoint of its thread's restartable state taken at its start
      (registers, pc — the paper's "call stack and processor registers");
    - the position in its thread's history buffer where its mod-set
      starts ([undo_at]): one copy-on-write {!Exec.Undo_log} per thread,
      owned by the engine, holds the pre-image of every architectural
      write, and a sub-thread's span runs from its mark to the next
      sub-thread's of the same thread;
    - the {e aliases} of the shared data it touched: the dynamic identity
      of locks acquired, atomic variables accessed, condition variables,
      barriers and thread join/exit edges. Aliases drive selective
      restart's dependent walk ("ones that acquired the same lock(s) or
      used the same atomic variable as the excepting sub-thread").
      Aliases are encoded as small-int codes in a growable bitset, so
      {!add_alias} is idempotent O(1) and {!aset_shares} a word-wise
      intersection test.

    The [id] doubles as the sub-thread's position in the deterministic
    total order: ids are allocated in token-grant order.

    Sub-thread records (with their [saved] register buffer) are pooled: {!acquire} recycles a record retired or squashed earlier
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
          {!add_alias}/{!mem_alias}/{!aset_shares}, not the raw words *)
  mutable alias_words : int;  (** words of [alias_bits] in use *)
  mutable global_dep : bool;
      (** conservative ⊤-alias: opaque calls and non-standard sync outside
          CPR regions conflict with every younger sub-thread *)
  saved : Vm.Tcb.saved;  (** thread state at sub-thread start *)
  mutable held_locks : int list;
      (** mutexes the thread held when this sub-thread's checkpoint was
          taken (a checkpoint can sit inside a critical section — e.g. a
          cond_wait boundary), sorted by descending index. Restoring the
          checkpoint must re-grant them, not release them. *)
  mutable undo_at : int;
      (** position of this sub-thread's epoch in its thread's history
          buffer ({!Exec.Undo_log.mark}); squashing replays the buffer
          from here, retiring forgets what lies before it *)
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
  mutable wake_barrier : int;
      (** the barrier whose release this checkpoint resumes after, or -1:
          set on the sub-thread a barrier release opens for each waiter,
          and inherited by a restored thread's replacement *)
  mutable releaser : int;
      (** with [wake_barrier]: the id of the sub-thread whose arrival
          released the waiter, or the record's own id for a replacement
          whose thread went back on the barrier. Restoring this
          checkpoint while the releaser is lost too puts the thread
          back on the barrier. *)
}

val make : id:int -> tid:int -> now:int -> saved:Vm.Tcb.saved -> t
(** A fresh, unpooled record (tests and the pool-miss path). *)

val add_alias : t -> alias -> unit
(** Idempotent constant-time insert. *)

val mem_alias : t -> alias -> bool

val copy_aliases : src:t -> t -> unit
(** [copy_aliases ~src dst] gives [dst], a fresh record with no aliases,
    [src]'s alias bits. *)

(** {1 Accumulated alias sets}

    The selective-squash walk tests each younger sub-thread against the
    union of every already-squashed alias set; folding the union into one
    accumulator makes each test O(words) instead of O(squashed x words). *)

type aset

val aset_create : unit -> aset

val aset_add : aset -> t -> unit
(** Union [sub]'s aliases (and its [global_dep] flag) into the set. *)

val aset_shares : aset -> t -> bool
(** [aset_shares a s]: some sub-thread [u] folded into [a] so far (at
    least one) shares an alias with [s] — their alias sets intersect, or
    [u] or [s] is [global_dep]. *)

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
    scrubbed immediately — alias bits, history-buffer position, freed
    blocks, fork and lock lists — so no squashed state can survive into
    its next life. The caller must have dropped every external reference
    (ROL slot, current-sub table, the armed undo hook). *)

val pool_stats : pool -> int * int * int
(** [(hits, misses, live high-water)] — recycled vs allocated acquires
    and the peak number of simultaneously outstanding records. *)

val pp : Format.formatter -> t -> unit
