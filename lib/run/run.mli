(** One run's inputs, defined once: a run is a deterministic function of
    its scenario {!t} and the {!prepared} program it builds. This module
    owns both, the scenario-to-config map and {!exec}, the one engine
    dispatch. [gprs_run], the daemon ([Server.Scenario] is the wire codec
    over this module), the paper drivers and both sweeps derive their
    runs from it, so every path reaches the same result. *)

type t = {
  id : string;  (** request correlation id, echoed in every reply *)
  workload : string;
  engine : string;  (** one of {!engines} *)
  ordering : string;  (** gprs ordering scheme, a name in {!orderings} *)
  contexts : int;
  scale : float;
  grain : string;  (** a name in {!grains} *)
  seed : int;
  rate : float;  (** exceptions per simulated second (cpr/gprs) *)
  interval : float;  (** cpr checkpoint interval in seconds *)
  want_stats : bool;  (** include run stats in the done event *)
}

val engines : string list
(** ["pthreads"; "cpr"; "gprs"] *)

val orderings : (string * Gprs.Order.scheme) list
(** GPRS ordering schemes by name: round-robin, balance-aware, weighted,
    recorded. *)

val grains : (string * Workloads.Workload.grain) list
(** Build grains by name: default, fine. *)

val ordering : t -> Gprs.Order.scheme
(** The scenario's ordering scheme. Raises [Invalid_argument] for a name
    not in {!orderings}. *)

val grain : t -> Workloads.Workload.grain
(** The scenario's build grain. Raises [Invalid_argument] for a name not
    in {!grains}. *)

val check_scale : float -> (float, string) result
(** The one input-scale check: finite and at least 0 (0 builds the
    smallest inputs). The error names the scale. *)

val check_rate : float -> (float, string) result
(** The one exception-rate check: finite, at least 0 and below one
    exception per simulated cycle, where the injector's next arrival
    would never pass the current cycle. The error names the rate. *)

val program_key : t -> string
(** Program-cache key: workload identity + build knobs — the inputs of
    decode, superblock compilation and lint admission, and nothing of
    the run (seed/rate/engine/ordering), so one cached program serves
    every run against it. *)

val coalesce_key : t -> string
(** Full run identity minus [id]: requests with equal keys are the same
    deterministic computation and the admission queue coalesces them. *)

type prepared = {
  spec : Workloads.Workload.spec;
  program : Vm.Isa.program;
  blocks : Vm.Block.t;  (** [program]'s fused/compiled superblocks *)
}
(** A program built and analyzed once and run any number of times: both
    are immutable, and each run copies its inputs into private state. *)

val build_program : t -> Workloads.Workload.spec * Vm.Isa.program
(** Decode the workload at the scenario's build knobs. Raises
    [Invalid_argument] for an unknown workload or grain. *)

val prepare : t -> prepared
(** {!build_program}, then [Vm.Block.analyze]. *)

(** {1 Engine configs}

    The scenario's contexts and seed; for cpr and gprs also an injector
    at the scenario's rate, seeded by the run seed, and the interval
    (cpr) or ordering (gprs). Callers override the fields that are their
    own: costs, recovery mode, a cycle budget, a stable WAL. *)

val pthreads_config : t -> Exec.Baseline.config
val cpr_config : t -> Cpr.config
val gprs_config : t -> Gprs.Engine.config

(** {1 Running} *)

type outcome = {
  digest : string;
  sim_cycles : int;
  sim_seconds : float;
  dnc : bool;
  races : int;  (** sanitizer reports (0 unless GPRS_TSAN arms it) *)
  stats : (string * float) list;  (** empty unless [want_stats] *)
}

val exec : ?blocks:Vm.Block.t -> t -> Vm.Isa.program -> Exec.State.run_result
(** Run [program] under the scenario's engine and its config. [blocks]
    is a prepared decode; omitted, the engine analyzes the program
    itself. GPRS's own lint hook is off: callers admit the program first
    (the CLI before the run, the daemon once per cache fill). Raises
    [Invalid_argument] for an unknown engine or ordering. *)

val run :
  spec:Workloads.Workload.spec ->
  program:Vm.Isa.program ->
  ?blocks:Vm.Block.t ->
  t ->
  outcome
(** {!exec}, summarized: the workload digest, cycles, DNC, race count
    and (if [want_stats]) the run stats. *)
