(** Thread control blocks for virtual threads.

    One TCB per dynamically created virtual thread. The [wait] field says
    why a thread is not currently eligible to run; the executors own the
    transitions. Registers and [pc] are exactly the state captured by
    sub-thread checkpoints, so the TCB provides deep {!copy_state} /
    {!restore_state} for recovery. *)

type wait =
  | Runnable  (** ready or running; scheduling state lives in the executor *)
  | On_mutex of int  (** waiting to acquire the mutex *)
  | On_cond of { c : int; m : int }  (** asleep on condvar [c]; must reacquire [m] *)
  | Reacquire of int  (** woken from a condvar; waiting to reacquire the mutex *)
  | On_barrier of int
  | On_join of int  (** waiting for thread [tid] to exit *)
  | On_token  (** GPRS: paused at a sync point for its deterministic turn *)
  | Done

type t = {
  tid : int;
  group : int;  (** thread group for balance-aware ordering *)
  proc : Isa.proc;
  mutable pc : int;
  regs : int array;
  mutable wait : wait;
  mutable joiners : int list;  (** tids blocked in [Join] on this thread *)
  mutable in_cpr_region : bool;  (** between [Cpr_begin] and [Cpr_end] *)
  mutable held_mutexes : int list;
      (** mutexes this thread currently holds, sorted by descending index.
          Maintained incrementally by {!hold}/{!unhold} at every holder
          transition (the executors' lock/unlock/hand-off paths) so that
          sub-thread checkpoints capture the held set in O(#held) instead
          of scanning the whole mutex table. *)
}

type saved
(** Opaque snapshot of the restartable state (pc + registers + region
    flag), stored as one flat unboxed [int array] so recycling
    a snapshot is two [Array.blit]s with no per-field boxing. *)

val create : tid:int -> group:int -> proc:Isa.proc -> args:int array -> t
(** A fresh thread with [args] loaded into the low registers. *)

val current_instr : t -> Isa.instr option
(** Instruction at [pc]; [None] past the end of the procedure, which the
    executors treat as an implicit [Exit]. *)

val copy_state : t -> saved

val copy_state_into : t -> saved -> unit
(** Overwrite a recycled snapshot in place (no allocation). The snapshot
    must come from {!copy_state}: the register count is fixed, so the
    blits are total. *)

val restore_state : t -> saved -> unit

val hold : t -> int -> unit
(** Record that this thread now holds mutex [m] (idempotent). *)

val unhold : t -> int -> unit
(** Record that this thread released mutex [m]. *)

val pp_wait : Format.formatter -> wait -> unit
