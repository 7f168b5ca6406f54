(** Structured findings produced by GPRS-lint.

    A diagnostic pins a finding to a procedure and program counter in a
    {!Vm.Isa.program}, carries the instruction name for context, and a
    machine-checkable {!kind} so tests (and tools) can assert on the exact
    check that fired rather than on message text. *)

type severity = Info | Warning | Error

type kind =
  | Unlock_without_lock  (** unlock of a mutex not in the lockset *)
  | Unresolved_unlock
      (** unlock whose mutex id could not be resolved statically while
          only exactly-resolved locks are held; pairing is assumed LIFO *)
  | Double_lock  (** second acquisition of a held (non-reentrant) mutex *)
  | Lock_at_blocking
      (** a mutex is held at a blocking operation — [Exit], [Barrier] or
          [Join] — so other threads needing it can never get it *)
  | Wait_without_mutex  (** [Cond_wait] whose mutex is not held *)
  | Inconsistent_locksets
      (** two CFG paths meet with different locksets (lock leak on a
          branch or loop iteration) *)
  | Lockset_overflow  (** more simultaneously-held locks than the cap *)
  | Unmatched_cpr_end  (** [Cpr_end] with no open region *)
  | Cpr_open_at_exit  (** thread exits inside a [Cpr_begin] region *)
  | Nested_cpr
      (** [Cpr_begin] inside a region — the VM tracks region membership
          as a flag, so the inner [Cpr_end] silently ends the outer *)
  | Inconsistent_cpr  (** CFG paths meet with different region depths *)
  | Unprotected_nonstd
      (** a [Nonstd_atomic] is reachable with no open CPR region: hybrid
          recovery (§3.5) is unsound for this program *)
  | Lock_order_cycle
      (** mutexes are acquired in conflicting orders across the program:
          potential ABBA deadlock *)
  | Bad_sync_id  (** statically-resolved object id out of declared range *)
  | Unknown_fork_target  (** [Fork] names a proc not in the program *)
  | Bad_branch_target  (** [Goto]/[If] target outside the code array *)
  | Barrier_mismatch  (** barrier_parties disagrees with static arrivals *)
  | Barrier_coverage  (** informational: which procs reach each barrier *)
  | Unforked_proc  (** informational: proc is neither entry nor forked *)
  | Implicit_exit  (** control can fall off the end of the code array *)
  | Analysis_budget  (** fixpoint iteration cap hit; results are partial *)
  | Race_unprotected
      (** two concurrent accesses to an overlapping may-access region,
          at least one a write, with no common statically-provable lock:
          an untracked dependence, so selective squash is unsound *)
  | Probe_fuel
      (** a [Work]-body probe ran out of fuel: its register effects and
          access summary degraded to all-[Top], hiding precision that
          also coarsens race detection at this proc *)

type t = {
  severity : severity;
  kind : kind;
  proc : string;
  pc : int;  (** [-1] for whole-program findings *)
  instr : string;
  message : string;
}

val make :
  severity:severity ->
  kind:kind ->
  proc:string ->
  pc:int ->
  instr:string ->
  string ->
  t

val severity_label : severity -> string
val kind_label : kind -> string

val compare : t -> t -> int
(** Orders by severity (errors first), then proc, pc, message. *)

val site : t -> string
(** ["proc.pc"], or just the proc name for whole-program findings. *)

val pp : Format.formatter -> t -> unit
