(** One scenario request: the parameter space of [gprs_run run].

    {!exec} is the one engine dispatch: [gprs_run run] builds a
    scenario and calls it, and the daemon reaches it through {!run}, so
    a daemon-served result is the one-shot result — digest, cycles,
    non-profiling stats — by construction. *)

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

val of_json : Json.t -> (t, string) result
(** Decode a run request; every field except [workload] has the CLI's
    default. Rejects an unknown engine, ordering or grain. *)

val to_json : t -> Json.t
(** Encode as a run request (includes ["op":"run"]). *)

val program_key : t -> string
(** Program-cache key: workload identity + build knobs — the inputs of
    decode, superblock compilation and lint admission, and nothing of
    the run (seed/rate/engine/ordering), so one cached program serves
    every run against it. *)

val coalesce_key : t -> string
(** Full run identity minus [id]: requests with equal keys are the same
    deterministic computation and the admission queue coalesces them. *)

type outcome = {
  digest : string;
  sim_cycles : int;
  sim_seconds : float;
  dnc : bool;
  races : int;  (** sanitizer reports (0 unless GPRS_TSAN arms it) *)
  stats : (string * float) list;  (** empty unless [want_stats] *)
}

val outcome_to_json : outcome -> Json.t

val build_program :
  t -> Workloads.Workload.spec * Vm.Isa.program
(** Decode the workload at the scenario's build knobs (the cache-miss
    path). Raises [Invalid_argument] for an unknown workload or grain. *)

val exec : ?blocks:Vm.Block.t -> t -> Vm.Isa.program -> Exec.State.run_result
(** Run [program] under the scenario's engine, seed, contexts and fault
    schedule. [blocks] is a cached pre-decode (warm path); omitted, the
    engine analyzes the program itself. GPRS's own lint hook is off.
    Raises [Invalid_argument] for an unknown engine or ordering. *)

val run :
  spec:Workloads.Workload.spec ->
  program:Vm.Isa.program ->
  ?blocks:Vm.Block.t ->
  t ->
  outcome
(** {!exec}, summarized: the workload digest, cycles, DNC, race count
    and (if [want_stats]) the run stats. *)
