(** GPRS-lint: static CFG/dataflow analysis of a {!Vm.Isa.program}.

    [program p] builds a per-proc control-flow graph, runs a forward
    dataflow pass computing the abstract lockset, open-CPR-region depth
    and constant registers at every program point (closure-typed object
    ids are resolved by constant propagation plus two-filler probe
    evaluation), and reports:

    - lock discipline: unlock-without-lock, double-lock, a mutex held at
      a blocking operation ([Exit]/[Barrier]/[Join]), [Cond_wait] whose
      mutex is not held, path-inconsistent locksets at CFG joins;
    - hybrid-recovery soundness (§3.5): unmatched/nested
      [Cpr_begin]/[Cpr_end], and any [Nonstd_atomic] reachable with
      region depth 0;
    - cross-proc facts: a mutex acquisition-order graph (SCCs of two or
      more mutexes are potential ABBA deadlocks) and which procs reach
      each barrier, cross-checked against [barrier_parties];
    - plumbing errors: out-of-range sync ids, unknown fork targets,
      out-of-bounds branch targets, implicit exits.

    The analysis is sound for the checks above up to id resolution:
    unresolved ids degrade to an "unknown lock" element with warnings
    rather than errors, so dynamically-chosen mutexes (e.g. per-bucket
    locks) do not produce false errors. Diagnostics are deduplicated per
    (proc, pc, kind) and sorted errors-first. *)

type lock = Lk of int | Lunk
(** An abstract lockset element: a statically-resolved mutex id, or a
    mutex whose id did not resolve (dynamically chosen). [Lunk] can never
    prove two sites share a lock. *)

type facts = {
  f_entry : string;
  f_accesses : (string * int * lock list * int * Races.summary) list;
      (** [(proc, pc, lockset, cpr_depth, summary)] for every reachable
          [Work] site, under the last (most conservative) dataflow state
          the fixpoint computed there *)
  f_forks : (string * int * string) list;
      (** [(forker, pc, target)] for every reachable [Fork] site *)
}
(** Dataflow facts exported for the race pass (see {!Race}). *)

val program : Vm.Isa.program -> Diagnostic.t list
(** Analyze a program. Never raises; returns sorted diagnostics. *)

val program_facts : Vm.Isa.program -> Diagnostic.t list * facts
(** As {!program}, additionally collecting per-site access summaries and
    fork sites for the Eraser-style race pass ({!Race.program}). *)

val admit : title:string -> Vm.Isa.program -> Diagnostic.t list
(** The one lint admission ([gprs_run run]'s pre-run pass, the daemon's
    cache fill and the paper drivers' once-per-row check): analyze the
    program, print its visible (non-info) findings to stderr under
    [title], and return the error-severity ones. Every caller refuses to
    run the program when that list is non-empty. *)

val errors : Diagnostic.t list -> Diagnostic.t list
(** Just the [Error]-severity findings. *)

val has_errors : Diagnostic.t list -> bool

val has_kind : Diagnostic.kind -> Diagnostic.t list -> bool
