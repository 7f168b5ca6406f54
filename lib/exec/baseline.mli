(** The Pthreads baseline executor.

    Runs a virtual-ISA program on the simulated multiprocessor the way the
    paper's unmodified Pthreads benchmarks run on Linux: an OS-style FIFO
    run queue time-slices threads across hardware contexts (quantum
    preemption, context-switch costs), synchronization is serviced in FIFO
    order, and there is no checkpointing, ordering, or recovery. This
    produces the baseline execution times of Table 2 and the normalization
    denominator of Figures 8–10. *)

type config = {
  n_contexts : int;
  seed : int;
  max_cycles : int option;  (** DNC budget; [None] = unbounded *)
  costs : Vm.Costs.t;
  reference : bool;
      (** single-step reference run (see {!State.t.reference}); tests
          only *)
}

val default_config : config
(** 24 contexts, seed 1, unbounded, default cost model, production
    dispatch. *)

val run : ?blocks:Vm.Block.t -> config -> Vm.Isa.program -> State.run_result
(** Execute to completion (all threads exited). Raises {!State.Deadlock}
    if the program wedges — a workload bug, surfaced loudly. [blocks]
    passes a cached [Vm.Block.analyze program] (see {!State.create}). *)
