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

(** {1 The preemptive dispatch core}

    The one scheduler the Pthreads baseline and P-CPR both run on: a FIFO
    run queue, quantum preemption, context-switch charges, and fused
    dispatch via {!Fuse.fetch} and {!Fuse.run_chain}. A FIFO never
    steals. P-CPR adds only checkpoint and rollback around it (paper
    §2.3). An engine wires
    in its [Tick] constructor, one extra fused-chain bound and a per-hop
    callback; none of them is a setting. *)

type 'ev core

val core :
  ?bound:(unit -> int) ->
  ?on_hop:(int -> int -> unit) ->
  tick:(int -> 'ev) ->
  max_cycles:int option ->
  'ev State.t ->
  'ev core
(** An idle core over [st]'s contexts. [tick ctx] is the engine's tick
    event, scheduled at priority [1 + ctx]. No fused instruction starts
    at or after [bound ()] (default [max_int]), read once per hop.
    [on_hop tid cycles] (default a no-op) runs once per dispatch. *)

val ctx_of : 'ev core -> int option array
(** Context -> running tid. *)

val tick_handles : 'ev core -> Sim.Event_queue.handle array
(** Context -> its latest tick, possibly fired (cancelling is then a
    no-op). *)

val on_ctx : int option array -> int -> bool
(** [on_ctx ctx_of tid]: [tid] runs on some context. Allocates nothing. *)

val make_runnable : 'ev core -> int -> unit
(** Enqueue a thread at the tail of the FIFO unless it is already queued
    or running. *)

val fill_all : 'ev core -> unit
(** Give every idle context, in index order, the next queued thread. *)

val tick : 'ev core -> int -> unit
(** A context's tick: preempt on quantum expiry when others wait, else
    dispatch the next instruction and its fused chain, or refill the
    context if its thread blocked or exited. *)

val reset_queue : 'ev core -> unit
(** Empty the run queue; contexts and tick handles are untouched. *)
