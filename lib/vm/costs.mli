(** Cycle cost model of the simulated multiprocessor.

    All executors (plain Pthreads, coordinated CPR, GPRS) charge simulated
    cycles through this one table, so cross-engine comparisons reflect the
    mechanisms, not divergent accounting. Values are loosely calibrated to
    the paper's platform (a 2-socket Sandy Bridge Xeon): synchronization
    costs of tens-to-hundreds of cycles, OS thread creation of tens of
    thousands, a 400k-cycle exception-detection latency (§4 of the paper).

    [cycles_per_second] converts to the paper's wall-clock units; the
    default of 10^7 keeps full benchmark runs around a few simulated
    seconds while preserving the relative magnitudes that drive the
    results. *)

val min_instr_cost : int
(** Floor charged for any dispatched instruction (1 cycle). Exposed at
    module level — rather than in the table — because the trace compiler
    bakes it into compiled closures at program load; [Exec.Sem.min_cost]
    re-exports it for the interpreted paths. *)

type t = {
  cycles_per_second : int;  (** wall-clock conversion for rates *)
  mem_access : int;  (** per tracked shared-memory read or write *)
  lock : int;  (** uncontended mutex acquire *)
  unlock : int;
  atomic : int;  (** atomic read-modify-write *)
  barrier_entry : int;  (** per-thread program barrier cost *)
  condvar : int;  (** wait/signal bookkeeping *)
  fork_thread : int;  (** OS thread creation (paper baseline) *)
  join : int;
  ctx_switch : int;  (** context switch when oversubscribed *)
  quantum : int;  (** preemption quantum *)
  alloc : int;  (** runtime allocator operation *)
  free : int;
  reg_checkpoint : int;  (** record registers+stack at sub-thread start *)
  cow_first_write : int;  (** lazy per-word state capture *)
  record_per_word : int;  (** CPR: record one dirty word at a checkpoint *)
  restore_per_word : int;  (** restore one word during rollback *)
  barrier_coord : int;  (** CPR: per-thread coordination at a global barrier *)
  token_pass : int;  (** DEX: pass/check the ordering token *)
  subthread_create : int;  (** DEX: sub-thread generation *)
  rol_insert : int;  (** DEX: reorder-list entry insertion *)
  rol_retire : int;  (** REX: retirement of a sub-thread *)
  wal_append : int;  (** WAL: log one runtime operation *)
  wal_undo : int;  (** WAL: undo one logged operation *)
  steal : int;  (** load-balancing scheduler steal attempt *)
  pause_resume : int;  (** REX: pause/resume the program on recovery *)
  detection_latency : int;
      (** exception occurrence -> report delay, read by GPRS and P-CPR
          alike; GPRS also holds a completed sub-thread this long before
          it retires *)
  io_setup : int;  (** per file operation *)
  io_per_word : int;  (** per word transferred *)
}

val default : t

val pp : Format.formatter -> t -> unit
