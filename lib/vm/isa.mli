(** The virtual instruction set.

    Workloads are programs over this small ISA, mirroring how the paper's
    benchmarks are Pthreads programs over the C toolchain. The
    synchronization instructions correspond one-for-one to the API calls
    GPRS intercepts (fork, join, lock, unlock, barrier, condition
    wait/signal, atomics — §3.2); [Nonstd_atomic] models the "home-spun"
    synchronization that GPRS does {e not} intercept (Canneal), and
    [Cpr_begin]/[Cpr_end] are the user markers for hybrid recovery.
    [Opaque] models a call with an unknown mod-set (third-party code),
    which GPRS must serialize.

    Compute happens in [Work] closures: [cost] is a pure function of the
    registers evaluated at dispatch to obtain the instruction's duration;
    [run] performs the effects through the tracked {!Env.t}. Branch
    conditions and dynamic operands are likewise pure functions of the
    registers, so re-executing a restored sub-thread deterministically
    replays the same path. *)

type regs = int array

type instr =
  | Work of { cost : regs -> int; run : Env.t -> unit }
  | Goto of int  (** unconditional branch to instruction index *)
  | If of { cond : regs -> bool; target : int }  (** branch when true *)
  | Lock of { m : regs -> int }
  | Unlock of { m : regs -> int }
  | Barrier of { b : int }
  | Cond_wait of { c : int; m : int }
  | Cond_signal of { c : int; all : bool }
  | Atomic of { var : regs -> int; rmw : old:int -> regs -> int; dst : int }
      (** standard atomic RMW on atomic variable [var]; old value lands in
          register [dst] *)
  | Nonstd_atomic of { var : regs -> int; rmw : old:int -> regs -> int; dst : int }
      (** same semantics, but invisible to GPRS's interception *)
  | Fork of { group : int; proc : string; args : regs -> int array; dst : int }
      (** spawn a thread running [proc] with [args] preloaded into its low
          registers; the new tid lands in [dst]. [group] feeds the
          balance-aware ordering schedule. *)
  | Join of { tid : regs -> int }
  | Alloc of { size : regs -> int; dst : int }  (** runtime allocator *)
  | Free of { addr : regs -> int }
  | Cpr_begin
  | Cpr_end
  | Opaque of { cost : regs -> int; run : Env.t -> unit }
  | Exit

type proc = { pname : string; code : instr array }

type program = {
  procs : (string * proc) list;
  entry : string;  (** main thread's procedure *)
  n_mutexes : int;
  n_condvars : int;
  n_atomics : int;
  barrier_parties : int array;  (** one entry per barrier *)
  n_groups : int;
  group_weights : int array;  (** weight per thread group (weighted order) *)
  mem_words : int;
  reserved_words : int;
      (** static low-address carve-out (FIFOs, tid tables, result areas)
          excluded from the runtime allocator *)
  input_files : (string * int array) list;
  output_files : string list;
}

val n_registers : int
(** Register-file size of every virtual thread. *)

val find_proc : program -> string -> proc
(** Raises [Not_found]-style [Invalid_argument] on unknown names, which
    indicates a workload construction bug. *)

val instr_name : instr -> string
(** Mnemonic for tracing. *)

val is_sync_point : instr -> bool
(** True for the instructions GPRS treats as communication points (where
    sub-threads end/begin): fork, join, lock, barrier, cond wait/signal,
    atomics, exit. Note [Unlock] is deliberately {e not} one — the paper's
    critical-section optimization (§3.2). *)

val is_communication : instr -> bool
(** The sync points that communicate through a shared object: lock,
    barrier, cond wait/signal, atomics. GPRS orders each by a
    deterministic turn; the other sync points (fork, join, exit) pair
    through the thread edge itself and are processed on arrival. *)
