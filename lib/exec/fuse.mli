(** Fused-chain execution, shared by the three engines' dispatch loops.

    After an engine has dispatched one instruction the ordinary way (any
    kind, at hop start time [t0], completing at [vstart]), [run_chain]
    keeps executing the thread's following fused block — [Work]/[Opaque]
    instructions plus the control transfers between them — without
    returning to the event queue, accumulating each instruction's exact
    duration. The engine then schedules a single tick at the returned
    completion time, so simulated-cycle accounting is bit-identical to
    the per-instruction schedule; only the number of heap operations
    changes.

    The chain runs through compiled superblock closures: each boundary
    whose pc has a compiled cell executes whole guard-checked runs of
    instructions per closure entry, deopting back to the interpreted
    probe loop on a mispredicted [If] (one interpreted commit, then
    re-entry) and stopping outright when the hop's horizon falls inside
    the trace. All committed effects — pc, CPR flag, clock, memory,
    stats — are identical to stepping one instruction per hop (an
    engine's [reference] run, which never calls [run_chain]); the
    closure only removes per-instruction dispatch overhead. *)

val run_chain :
  'ev State.t ->
  Vm.Tcb.t ->
  instrs:int ref ->
  horizon:int ->
  on_fused:(Vm.Block.probe -> Vm.Isa.instr -> unit) ->
  ?on_trace:
    (steps:int ->
    opaques:int ->
    last_opaque_in_cpr:bool ->
    entered_cpr:bool ->
    unit) ->
  vstart:int ->
  unit ->
  int
(** [run_chain st tcb ~instrs ~horizon ~on_fused ?on_trace ~vstart ()]
    returns the virtual completion time of the chain (= [vstart] when
    nothing fused).

    [horizon] is the hop's precomputed deopt bound: an instruction whose
    boundary time [s] satisfies [s < horizon] may fuse; at [s >= horizon]
    the chain ends and the real tick re-checks live state. The engine
    folds its whole [keep_going] predicate — cycle budget, quantum edge,
    queue head, armed alarm/report, pending fault — into this single
    integer, valid because all inputs are constant for the duration of
    the hop. Returning a smaller horizon is always sound.

    Each interpreted iteration probes the control chain from [tcb.pc]; if
    the landing instruction is fusible and under the horizon, the probe
    is committed, [on_fused] runs (engine bookkeeping, after the pc /
    CPR-flag commit, before execution), the instruction executes via
    {!Sem.exec_work}, and the clock advances by the control cycles plus
    the instruction's duration. Otherwise the probe is abandoned with
    the pc untouched and the chain ends.

    [on_trace], if given, is called once per compiled-closure entry that
    committed at least one instruction, immediately after the closure
    returns and before any further instruction of the chain — carrying
    the per-entry effects an engine applies per instruction on the
    interpreted path ([opaques] count, CPR flag at the last [Opaque],
    whether a [Cpr_begin] was crossed). Latch and last-writer semantics
    make the batched application bit-identical.

    [instrs] is the engine's cached ["instrs"] counter; it is bumped once
    per fused instruction (compiled or interpreted), matching the unfused
    one-per-dispatch rate. *)
