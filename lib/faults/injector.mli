(** Discretionary-exception injection.

    Models the paper's exception-raising thread (§4 "System Assumptions"):
    exceptions occur at a configured rate, each striking one uniformly
    chosen hardware context. The injector only says when and where an
    exception occurs. Each engine reports it to its recovery system
    [Vm.Costs.detection_latency] cycles later (default 40,000 — the
    paper's 400k-cycle latency rescaled with the rest of the machine
    constants; see DESIGN.md §2), the same latency that sets how long
    GPRS holds a completed sub-thread before it retires. The arrival
    process is periodic or Poisson; the paper stress-tests rates without
    emphasizing the distribution, and both are provided.

    Exceptions carry a {!kind} reflecting the sources surveyed in §2.1.
    All kinds are {e global} exceptions from the recovery system's
    perspective; kinds are metadata for reporting and for workloads (such
    as approximate computing) that interpret them. A whole-runtime crash
    is not a kind: it is armed only by an engine's crash LSN or by a
    named fault point ({!Points}). *)

type kind =
  | Transient_fault  (** soft error corrupting a context *)
  | Voltage_emergency  (** timing/voltage/thermal emergency *)
  | Approx_recompute  (** QoS framework demands recomputation *)
  | Resource_revocation  (** spot instance / scheduler revoked a context *)

type event = {
  occurred_at : Sim.Time.cycles;
  ctx : int;  (** stricken hardware context *)
  kind : kind;
  seq : int;  (** 0-based exception number *)
}

type process =
  | Periodic  (** evenly spaced at [1/rate] seconds *)
  | Poisson  (** exponential inter-arrival with mean [1/rate] *)

type config = {
  rate : float;  (** exceptions per simulated second; [<= 0.] disables *)
  process : process;
  kinds : kind list;  (** drawn uniformly; default all four kinds *)
  seed : int;
}

val default_config : config
(** Disabled (rate 0), periodic, seed 1. *)

val config : ?process:process -> ?kinds:kind list -> ?seed:int -> float -> config
(** [config rate] with optional overrides. *)

type t

val create : config -> n_contexts:int -> cycles_per_second:int -> t

val next : t -> t * event option
(** The next exception after the previous one, advancing the stream.
    [None] when injection is disabled. Pure-functional interface so
    engines can't accidentally share streams. *)
