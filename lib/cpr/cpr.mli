(** Conventional coordinated checkpoint-and-recovery (P-CPR).

    The paper's software baseline (§2.3): periodically, a global barrier
    stops every thread; once all contexts quiesce, each records its
    application-level checkpoint state between two barriers; execution
    then resumes. When an exception is reported, the program halts, the
    most recent checkpoint {e consistent with the exception's occurrence
    time} is restored (a checkpoint taken inside the detection-latency
    window is contaminated and skipped), and {e all} work since is lost.

    A checkpoint commits only when every pre-existing computing thread
    advanced by half an interval of its own work since the last commit
    (threads parked at synchronization operations count as at a
    checkpoint location). This progress gate anchors checkpoints to
    program progress like the paper's sync-point barriers.

    P-CPR runs on {!Exec.Baseline}'s dispatch core itself — run queue,
    preemption, context-switch charges, fetch and fused dispatch — and
    adds only quiescing, recording, commit, restore and the fault and
    crash events around it. The execution machinery is the Pthreads
    baseline's by construction, so P-CPR-vs-GPRS differences isolate the
    recovery designs.

    Statistics recorded under ["cpr.*"]: checkpoints committed, rollbacks,
    lost cycles, checkpoint words, quiesce/record/restore time. *)

type config = {
  n_contexts : int;
  seed : int;
  max_cycles : int option;  (** DNC budget *)
  checkpoint_interval : float;  (** seconds between checkpoint initiations *)
  injector : Faults.Injector.config;
  livelock_rollbacks : int;
      (** consecutive rollbacks with no intervening committed checkpoint
          before the run is declared DNC *)
  costs : Vm.Costs.t;
      (** machine costs; [detection_latency] delays each exception's
          report past its occurrence, as in GPRS *)
  crash_at : int option;
      (** whole-runtime crash at this simulated cycle: the machine loses
          all work since the last committed global checkpoint and restores
          it — P-CPR's answer to the crash the GPRS sweep recovers from
          via WAL replay + history-buffer restarts. Default [None]. *)
  reference : bool;
      (** single-step reference run (see {!Exec.State.t.reference});
          tests only. Default [false]. *)
}

val default_config : config
(** 24 contexts, 1s interval, no faults, livelock bound 200. *)

val run :
  ?blocks:Vm.Block.t -> config -> Vm.Isa.program -> Exec.State.run_result
