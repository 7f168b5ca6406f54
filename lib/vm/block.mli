(** Fused-block pre-decoder and superblock trace compiler.

    A {e fused block} is a maximal run of fusible instructions that an
    engine may execute in a single event-queue hop, summing their
    durations, instead of paying one heap push/pop per instruction.
    Engines find them with a dynamic control-flow {!probe_ctrl}, so a
    hop can chase [Goto]/[If]/[Cpr_begin]/[Cpr_end] chains across block
    boundaries exactly as an unfused dispatch's fetch does.

    On top of the probe sits a {e superblock compiler}: at program load
    every boundary pc is compiled into an OCaml closure (a {!cell}) that
    executes its control prefix — with each [If] direction statically
    predicted (backward taken, forward fall-through) and recorded as a
    {e guard} — plus the fusible landing instruction, then tail-calls the
    cell at the landing's successor. Loops tie the knot: the cells of a
    loop body form a closure cycle, nothing is unrolled. A failed guard
    or the hop's deopt horizon abandons the trace {e between} steps, with
    pc and clock at the last committed boundary, and the interpreted
    probe chain takes over — so compiled execution is observationally
    identical to the interpreted chain, instruction for instruction.

    The fusible class is deliberately narrower than "not a sync point":
    only [Work] and [Opaque] qualify. [Unlock], [Alloc], [Free]
    and [Nonstd_atomic] are straight-line filler for {e sub-thread
    formation} but are cross-thread {e observable} (wake hand-off order,
    allocator address order, atomic interleaving), so hoisting them to the
    hop's start time could change another thread's behaviour; they end
    a fused block and dispatch alone at their exact unfused times. [Work]
    and [Opaque] only touch data that is race-free in a correct program
    (the lock discipline GPRS-lint enforces), so their effects commute
    with every event inside the hop's time window and cycle accounting,
    sub-thread boundaries, stats and output digests stay bit-identical —
    the engines additionally deopt to instruction-at-a-time stepping
    whenever precise interleaving is observable (pending injected fault
    in the window, armed CPR alarm, quantum expiry, recovery in
    progress, cycle-budget edge).

    Chains evaluate each [If] condition exactly once (the probe's results
    are committed, never re-run); conditions are assumed pure, as every
    builder-generated program satisfies. Guard checks may re-evaluate a
    condition the interpreted replay evaluates again after a deopt —
    purity makes the double evaluation unobservable. *)

(** {1 Profiling} *)

val set_profiling : bool -> unit
(** Enable the dispatch-mix profiler: engines then count
    ["dispatch.<kind>"] per dispatched instruction, ["dispatch.ctrl"]
    per fused control transfer, a ["fuse.len.NN"] histogram of
    fused-hop lengths (compiled steps counted individually, not
    one-per-closure), and ["compile.*"] trace-compiler counters into run
    stats. Off by default (the counters are excluded from cross-leg
    stat-equality checks). *)

val profiling : bool ref

(** {1 Compiled superblocks} *)

type deopt =
  | Trace_end  (** ran to a terminal cell (next landing stops the block) *)
  | Guard_fail  (** an [If] went against its static prediction *)
  | Horizon  (** the hop's deopt horizon fell inside the trace *)

(** Mutable trace-execution state threaded through compiled closures.
    One cursor per executor state, reset per compiled entry — the trace
    driver reads the accumulators back out after the closure returns. *)
type cursor = {
  mutable cu_tcb : Tcb.t;
  mutable cu_env : Env.t;  (** cached tracked env for [cu_tcb] *)
  mutable cu_take_acc : unit -> int;  (** drains tracked-access cycles *)
  mutable cu_vnow : int;  (** clock at the current boundary *)
  mutable cu_horizon : int;  (** deopt when [cu_vnow >= cu_horizon] *)
  mutable cu_steps : int;  (** instructions committed this entry *)
  mutable cu_ctrl : int;  (** control transfers crossed this entry *)
  mutable cu_opaques : int;  (** [Opaque] steps this entry *)
  mutable cu_opaque_in_cpr : bool;  (** CPR flag at the last [Opaque] *)
  mutable cu_deopt : deopt;  (** why the closure returned *)
}

val make_cursor :
  tcb:Tcb.t -> env:Env.t -> take_acc:(unit -> int) -> cursor

type cell
(** A compiled superblock boundary: executing it commits zero or more
    instructions (guards permitting) and sets the cursor's deopt reason. *)

val enter : cell -> cursor -> unit
(** Run the cell's compiled body. On return, [cu_steps] instructions have
    been committed (pc, CPR flag, clock, and all memory/file effects
    exactly as the interpreted chain), and [cu_deopt] says why it
    stopped. A step is atomic: a guard failure or horizon deopt happens
    strictly between steps, never after partial effects. *)

(** {1 Per-program analysis} *)

type proc_blocks = {
  cells : cell option array;
      (** per-boundary compiled cells; use {!trace_at}, which filters out
          terminal (zero-step) and not-worth-entering cells *)
  n_compiled : int;  (** cells with at least one compiled step *)
}

type t

val analyze : Isa.program -> t
(** Decode and compile every proc. Done once in [Exec.State.create] —
    unless the caller passes a cached result in, which is how the
    service-mode program cache pays this cost once per program. *)

val analyses : unit -> int
(** Process-wide monotonic count of {!analyze} calls. A warm program
    cache must leave it untouched: the service bench asserts a zero
    delta across its warm-dispatch phase. *)

val proc_info : t -> Isa.proc -> proc_blocks
(** The blocks of [proc], found by identity among the analyzed procs (a
    short pointer scan, no string hash), else by name. Raises
    [Invalid_argument] for a proc not in the analyzed program. *)

val n_compiled : t -> int
(** Program-wide count of compiled superblock cells (the
    ["compile.superblocks"] profile counter). *)

val trace_at : proc_blocks -> int -> cell option
(** The compiled cell entered at boundary [pc], if its trace is worth
    entering: the statically predicted path either loops or commits
    several instructions before ending. Short straight-line traces are
    left to the interpreted probe — entry setup would not amortize.
    Every interior boundary of a worthwhile superblock is enterable, so
    loop bodies re-enter their trace after any deopt. *)

(** {1 Control-flow probe} *)

type probe = {
  p_pc : int;  (** pc of the first non-Ctrl instruction reached *)
  p_ctrl : int;  (** control transfers crossed (1 cycle each) *)
  p_in_cpr : bool;  (** CPR-region flag after the crossing *)
  p_instr : Isa.instr;
      (** the landing instruction at [p_pc]; [Exit] when the chain ran off
          the end of the code (an implicit exit) *)
}

val probe_ctrl : Isa.proc -> pc:int -> regs:Isa.regs -> in_cpr:bool -> probe
(** Follow the Ctrl chain from [pc] without touching the TCB, evaluating
    each [If] condition once. The caller either {e commits} the probe
    (assign [p_pc], [p_in_cpr], charge [p_ctrl]; the engines' [Exec.Fuse.fetch])
    or abandons it untouched (the fused chain's landing stops the block:
    the next real dispatch replays the chain, preserving the unfused
    charging of trailing control cycles to the stop instruction's
    hop). *)

(** {1 Dispatch-mix profiling} *)

val profile_instr : Sim.Stats.t -> Isa.instr -> unit
val profile_ctrl : Sim.Stats.t -> int -> unit
val profile_hop : Sim.Stats.t -> int -> unit
