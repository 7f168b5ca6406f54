(** Experiment drivers: one per table/figure of the paper's evaluation.

    Every driver runs the simulator — never canned numbers — and returns
    a structured result that {!Report} renders in the same shape the
    paper reports. Absolute values differ from the paper (our substrate
    is a simulated machine, theirs a 24-context Xeon); the comparisons —
    who wins, by roughly what factor, where the tipping points fall — are
    the reproduction targets (see EXPERIMENTS.md).

    [scale] shrinks workload inputs for quick runs; 1.0 is the "large
    input" configuration used for the recorded results.

    Each row lints its program once ({!Lint.Check.admit}) before its
    first GPRS run, and a driver raises [Failure] if lint finds
    error-severity issues. *)

type cfg = {
  n_contexts : int;
  scale : float;
  seed : int;
  dnc_factor : int;  (** DNC budget as a multiple of the fault-free time *)
  jobs : int;
      (** worker domains the drivers fan independent runs across
          ({!Pool.map}); results are reassembled in workload order, so
          any [jobs] produces bit-identical output *)
}

val default_cfg : cfg
(** 24 contexts (the paper's machine), scale 1.0, seed 1, budget 30x,
    sequential ([jobs = 1]). *)

val costs_order_only : Vm.Costs.t
(** Cost-accounting ablation: ROL management and checkpointing charges
    zeroed — isolates the ordering overhead (the figures' "-OR" bars).
    Mechanisms still execute; only their cycle charges change. *)

val costs_order_rol : Vm.Costs.t
(** Checkpointing charges zeroed — ordering + ROL ("-ROL" bars). *)

(** {1 Drivers} *)

val table1 : unit -> string list list
(** Qualitative related-work rows (Table 1). *)

val table2 : cfg -> string list list
(** Program characteristics: measured Pthreads time, sub-thread size and
    count under GPRS (Table 2). *)

val fig8a : cfg -> Report.figure
(** Overhead decomposition at default granularity: G-R-OR, G-B-OR,
    G-B-ROL, P-/-CH, G-B-CH relative to Pthreads. *)

val fig8b : cfg -> Report.figure
(** Same with fine-grained computations. *)

val fig9 : cfg -> Report.figure
(** Fine-grained Pthreads vs fine-grained GPRS (Barnes-Hut,
    Blackscholes, Swaptions, Canneal). *)

val fig10_exceptions : string -> float * float
(** Fig. 10's expected exceptions per fault-free run, (low, high), of the
    named workload; the driver's rate is that count over the run's
    fault-free Pthreads seconds. *)

val fig10 : cfg -> Report.figure
(** Recovery at per-workload low/high exception rates: P-CPR-L, GPRS-L,
    P-CPR-H, GPRS-H. *)

type fig11_result = {
  contexts : int list;
  rates : float list;  (** the exception-rate ladder (exceptions/sec) *)
  cpr_times : (int * (float * float option) list) list;
      (** per context-count, (rate, relative time or DNC) *)
  gprs_times : (int * (float * float option) list) list;
  tipping : (int * float option * float option) list;
      (** per context-count: highest completing rate for P-CPR and GPRS *)
}

val fig11 : ?rates:float list -> ?contexts:int list -> cfg -> fig11_result
(** The Pbzip2 exception-tolerance sweep; default contexts 1..24. *)

val render_fig11 : Format.formatter -> fig11_result -> unit

(** {1 Ablations} (design-choice studies beyond the paper's figures) *)

val ablation_ordering : cfg -> Report.figure
(** Every ordering scheme — round-robin, balance-aware, weighted, and the
    recorded (nondeterministic) §2.4 alternative — on the pipeline
    workloads, fault-free and under exceptions. *)

val ablation_latency : cfg -> string list list
(** Detection-latency sweep on Pbzip2 under a fixed exception rate:
    longer latencies delay retirement (deeper ROL, larger WAL) and make
    recoveries squash more; rows are (latency, relative time, max ROL
    depth, WAL high water, squashed sub-threads). *)

val ablation_recovery : cfg -> Report.figure
(** Selective vs basic recovery across the suite under exceptions. *)

val tune_weights : cfg -> Workloads.Workload.spec -> (int array * float) list
(** Automated version of the paper's by-trial-and-error weight search:
    runs the weighted schedule under candidate group-weight vectors and
    returns (weights, relative time), best first. *)

val render_weights :
  Format.formatter -> Workloads.Workload.spec -> (int array * float) list -> unit

val ablation_interval : cfg -> string list list
(** CPR checkpoint-interval sweep (§2.3's Pc/Pr trade-off): rows are
    (interval as a fraction of the run, fault-free relative time,
    relative time at ~6 exceptions/run, checkpoints, rollbacks). *)
