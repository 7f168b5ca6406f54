(** The GPRS runtime: Deterministic Execution Engine (DEX) + Restart
    Engine (REX).

    DEX intercepts the program's synchronization operations and divides
    its threads into ordered sub-threads (§3.2 of the paper):

    - A sub-thread ends, and a new one begins, at each fork, join, lock,
      barrier, condition wait/signal, atomic operation and thread exit.
      Unlocks do {e not} split (critical-section optimization), and nested
      critical sections are flattened into the outermost one.
    - A thread arriving at a {e communication} operation (lock, atomic,
      condition wait/signal, barrier) parks until the ordering token
      designates it; the token follows the configured {!Order.scheme}.
      The grant performs the operation — so the communication order
      equals the token order — checkpoints the thread state into the new
      sub-thread's history-buffer entry, and inserts the entry into the
      ROL. Fork, join and exit boundaries are processed on arrival: they
      do not communicate through shared objects (the fork order is the
      parent's program order; join/exit pair through the thread edge), so
      data-parallel programs incur no ordering waits — matching the
      paper's near-zero ordering overhead for fork/join programs.
    - Sub-threads are executed by a load-balancing work-stealing pool of
      one worker per hardware context; virtual-thread creation under GPRS
      costs a sub-thread creation, not an OS thread (DEX intercepts
      [pthread_create]).
    - Runtime operations (allocator calls, ROL inserts, thread creation)
      are logged to the WAL on behalf of the executing sub-thread.

    REX retires completed ROL heads once the exception-detection latency
    has passed (output commit), and recovers from reported exceptions:

    - {e Selective restart}: squash the excepted sub-thread plus the
      younger sub-threads reachable from it through alias sharing, program
      order and fork edges; undo their architectural writes (history
      buffer) and runtime operations (WAL), reset their threads to the
      oldest squashed checkpoint, and restart them — unaffected
      sub-threads keep running.
    - {e Basic recovery}: squash the excepted sub-thread and {e all}
      younger sub-threads, stalling the whole machine during recovery.
    - {e Hybrid recovery}: [Cpr_begin]/[Cpr_end] regions execute as single
      sub-threads with interception suppressed, so data-race-prone or
      non-standard-API code (Canneal) recovers at region granularity.
    - Exceptions striking an idle context corrupt the runtime itself and
      are repaired by walking the WAL (§3.4), with no user work lost.

    Statistics are reported under ["gprs.*"] and ["wal.*"]. *)

type recovery = Selective | Basic

type config = {
  n_contexts : int;
  seed : int;
  max_cycles : int option;  (** DNC budget *)
  ordering : Order.scheme;
  recovery : recovery;
  injector : Faults.Injector.config;
  livelock_squashes : int;
      (** squashed sub-threads since the last retirement before the run is
          declared DNC *)
  costs : Vm.Costs.t;
  revoke_contexts : bool;
      (** treat [Resource_revocation] exceptions as permanent hardware
          loss: the struck context is retired and execution continues on
          the rest (the paper's §3.5 fatal-exception extension); all
          contexts lost means DNC *)
  wal_stable : bool;
      (** serialize the WAL to an in-memory stable-storage image (see
          {!Wal.stable_image}); implied by either crash trigger below.
          Arming it changes no simulated cycle and no program output —
          appends already charge their cycles whether or not an image is
          kept *)
  crash_lsn : int option;
      (** crash the runtime immediately after WAL op record [lsn] reaches
          stable storage: {!run} raises {!Crashed} carrying the durable
          remains. The crash sweep enumerates this over every LSN *)
  crash_cycle : int option;
      (** crash at a simulated cycle instead of a WAL boundary — the
          schedule-comparison form used to hit GPRS and P-CPR at the same
          points *)
  reference : bool;
      (** single-step reference run (see {!Exec.State.t.reference}) with
          sub-thread record reuse off; tests only. Default [false]. *)
}

val default_config : config
(** 24 contexts, balance-aware ordering, selective restart, no faults. *)

(** {2 Crash model}

    A [Crash] (whole-runtime failure) at cycle [c] discards everything
    volatile: the scheduler's queues, the live WAL entries, the ROL ring,
    the engine's context/tick/sub-thread tables. What survives is what
    the paper's fault model calls stable: the serialized WAL image, the
    architectural state (memory words, atomics, files, TCBs — protected
    by the history buffers of in-flight sub-threads), those in-flight
    sub-threads' history-buffer checkpoints and undo logs, the ordering
    state, and the fault injector's stream. {!cold_restart} rebuilds a
    running engine from those remains after {!Recovery} has performed
    ARIES analysis/redo planning over the WAL image. *)

type crash_dump
(** The durable remains of a crashed run. *)

exception Crashed of crash_dump
(** Raised by {!run} when a configured crash trigger fires. *)

val dump_cycle : crash_dump -> int
(** Simulated cycle at which the crash struck. *)

val dump_wal_image : crash_dump -> string
(** The WAL's stable-storage image as of the crash. *)

val dump_active_ids : crash_dump -> int list
(** Orders of the in-flight (unretired) sub-threads, ascending — the
    ground truth the WAL analysis' loser set is cross-checked against. *)

val cold_restart :
  crash_dump ->
  redo:(Vm.Mem.t -> int) ->
  loser_ops:Wal.entry list ->
  replayed:int ->
  next_sub:int ->
  unit ->
  Exec.State.run_result
(** Rebuild a running engine from a crash dump and resume to completion.
    [redo] re-applies the retired-prefix allocator operations (checkpoint
    image + conditional LSN-order replay; returns ops applied);
    [loser_ops] are the in-flight sub-threads' log records in reverse LSN
    order, to be undone; [replayed] sizes the modeled repair duration;
    [next_sub] continues the order-id sequence past every id the log
    granted. Partial application up to [()] performs the whole recovery —
    the returned thunk only re-enters the event loop, so callers can time
    recovery separately from re-execution. *)

val run :
  ?lint:[ `Off | `Warn | `Strict ] ->
  ?wal_out:string ref ->
  ?blocks:Vm.Block.t ->
  ?events:Event_ring.t ->
  config ->
  Vm.Isa.program ->
  Exec.State.run_result
(** Execute a program under GPRS.

    Before execution the program is statically analyzed by GPRS-lint
    ({!Lint.Check.program}) for lock discipline, deadlock-order cycles
    and hybrid-recovery region soundness:

    - [`Warn] (default): render any warning/error findings to stderr
      once, then run anyway;
    - [`Strict]: raise {!Lint.Check.Rejected} with the error-severity
      findings instead of running — in particular a [Nonstd_atomic]
      reachable outside a CPR region (which would make hybrid recovery
      unsound, previously only counted at runtime under the
      ["gprs.nonstd_unprotected"] stat) refuses to start;
    - [`Off]: skip the analysis (for callers that linted already).

    [wal_out], on normal completion with a stable WAL, receives the final
    serialized image (the fault-free pilot the crash sweep enumerates
    crash points from).

    [events] is the run's {!Event_ring}; it keeps recording after a
    {!cold_restart}. Without it the run records into a fresh ring that
    is enabled only when [GPRS_DEBUG] is set; on a DNC run [GPRS_DEBUG]
    also prints a wedge dump (scheduler and ROL state, then the ring) to
    stderr. *)
