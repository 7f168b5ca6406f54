(** Conventional coordinated checkpoint-and-recovery (P-CPR).

    The paper's software baseline (§2.3): periodically, a global barrier
    stops every thread; once all contexts quiesce, each records its
    application-level checkpoint state between two barriers; execution
    then resumes. When an exception is reported, the program halts, the
    most recent checkpoint {e consistent with the exception's occurrence
    time} is restored (a checkpoint taken inside the detection-latency
    window is contaminated and skipped), and {e all} work since is lost.

    The execution machinery (dispatch, synchronization, costs) is the same
    as {!Exec.Baseline}; only the checkpoint/recovery apparatus is added,
    so P-CPR-vs-GPRS differences isolate the recovery designs.

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
  commit_progress_fraction : float;
      (** progress gate: a checkpoint commits only when every pre-existing
          computing thread advanced by this fraction of an interval of its
          own work since the last commit (threads parked at
          synchronization operations count as at a checkpoint location).
          Anchors checkpoints to program progress like the paper's
          sync-point barriers; without it CPR would commit arbitrary
          quiesced states and crawl through exception storms the paper's
          scheme cannot survive. 0.0 disables. Default 0.5. *)
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
