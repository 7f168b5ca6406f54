type config = {
  n_contexts : int;
  seed : int;
  max_cycles : int option;
  costs : Vm.Costs.t;
  reference : bool;
}

let default_config =
  {
    n_contexts = 24;
    seed = 1;
    max_cycles = None;
    costs = Vm.Costs.default;
    reference = false;
  }

(* ------------------------------------------------------------------ *)
(* The preemptive dispatch core (shared with P-CPR; see baseline.mli)   *)
(* ------------------------------------------------------------------ *)

type 'ev core = {
  st : 'ev State.t;
  runq : int Sched.Deque.t;  (* the FIFO run queue: push bottom, take top *)
  ctx_of : int option array;  (* context -> running tid *)
  last_tid : int array;  (* context -> last tid it ran, -1 if none *)
  started : int array;  (* context -> time current thread got the context *)
  tick_handle : Sim.Event_queue.handle array;  (* context -> latest tick *)
  mutable queued : bool Tidtab.t;  (* tids currently in the run queue *)
  budget : int;  (* max_cycles, or max_int *)
  instrs : int ref;  (* cached "instrs" counter *)
  ctx_switches : Sim.Stats.handle;
  preemptions : Sim.Stats.handle;
  tick_event : int -> 'ev;  (* the engine's tick constructor *)
  bound : unit -> int;  (* the engine's extra fused-chain bound *)
  on_hop : int -> int -> unit;  (* (tid, cycles) after each dispatch *)
}

let core ?(bound = fun () -> max_int) ?(on_hop = fun _ _ -> ()) ~tick
    ~max_cycles (st : 'ev State.t) =
  let n = st.State.n_contexts in
  {
    st;
    runq = Sched.Deque.create ();
    ctx_of = Array.make n None;
    last_tid = Array.make n (-1);
    started = Array.make n 0;
    tick_handle = Array.make n Sim.Event_queue.no_handle;
    queued = Tidtab.create false;
    budget = Option.value ~default:max_int max_cycles;
    instrs = Sim.Stats.counter st.State.stats "instrs";
    ctx_switches = Sim.Stats.handle st.State.stats "ctx_switches";
    preemptions = Sim.Stats.handle st.State.stats "preemptions";
    tick_event = tick;
    bound;
    on_hop;
  }

let ctx_of c = c.ctx_of
let tick_handles c = c.tick_handle

(* A monomorphic scan that allocates nothing. *)
let on_ctx ctx_of tid =
  let n = Array.length ctx_of in
  let i = ref 0 in
  while
    !i < n && match ctx_of.(!i) with Some t -> t <> tid | None -> true
  do
    incr i
  done;
  !i < n

let make_runnable c tid =
  if (not (Tidtab.get c.queued tid)) && not (on_ctx c.ctx_of tid) then begin
    Tidtab.set c.queued tid true;
    Sched.Deque.push_bottom c.runq tid
  end

let rec wake c = function
  | [] -> ()
  | tid :: rest ->
    make_runnable c tid;
    wake c rest

let reset_queue c =
  while not (Sched.Deque.is_empty c.runq) do
    ignore (Sched.Deque.steal_top c.runq)
  done;
  c.queued <- Tidtab.create false

let schedule_tick c ctx ~after =
  c.tick_handle.(ctx) <-
    Sim.Event_queue.schedule c.st.State.evq ~prio:(1 + ctx)
      ~time:(State.now c.st + Stdlib.max Sem.min_cost after)
      (c.tick_event ctx)

(* Execute one instruction of [tcb] on [ctx], then as much of the
   following fused block as stays unobservable, and schedule the
   context's next tick at the chain's completion time. Control-flow
   instructions are fused into the next real instruction at one cycle
   each. *)
let dispatch c ctx (tcb : Vm.Tcb.t) =
  let st = c.st in
  let t0 = State.now st in
  let pr = Fuse.fetch tcb in
  let instr = pr.Vm.Block.p_instr and ctrl = pr.Vm.Block.p_ctrl in
  incr c.instrs;
  Vm.Block.profile_ctrl st.State.stats ctrl;
  Vm.Block.profile_instr st.State.stats instr;
  (* Advance past the instruction before executing it, so blocked threads
     resume after it (see {!Sem}). [Exit] needs no pc update. *)
  (match instr with Vm.Isa.Exit -> () | _ -> tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1);
  let d =
    match instr with
    | Vm.Isa.Work { cost; run } | Vm.Isa.Opaque { cost; run } ->
      Sem.exec_work st tcb ~cost ~run
    | Vm.Isa.Lock { m } ->
      snd (Sem.try_lock st tcb (m tcb.Vm.Tcb.regs))
    | Vm.Isa.Unlock { m } ->
      let woken, d = Sem.unlock st tcb (m tcb.Vm.Tcb.regs) in
      (match woken with Some w -> make_runnable c w | None -> ());
      d
    | Vm.Isa.Barrier { b } ->
      let released, d = Sem.barrier_arrive st tcb b in
      wake c released;
      d
    | Vm.Isa.Cond_wait { c = cv; m } ->
      let granted, d = Sem.cond_block st tcb ~c:cv ~m in
      (match granted with Some w -> make_runnable c w | None -> ());
      d
    | Vm.Isa.Cond_signal { c = cv; all } ->
      let _woken, runnable, d = Sem.cond_wake st ~c:cv ~all in
      wake c runnable;
      d
    | Vm.Isa.Atomic { var; rmw; dst } | Vm.Isa.Nonstd_atomic { var; rmw; dst } ->
      Sem.atomic_rmw st tcb ~var:(var tcb.Vm.Tcb.regs) ~rmw ~dst
    | Vm.Isa.Fork { group; proc; args; dst } ->
      let child, d = Sem.fork st tcb ~group ~proc ~args ~dst in
      make_runnable c child.Vm.Tcb.tid;
      d
    | Vm.Isa.Join { tid } ->
      let _ready, d = Sem.join st tcb ~target:(tid tcb.Vm.Tcb.regs) in
      d
    | Vm.Isa.Alloc { size; dst } ->
      let _a, d = Sem.alloc st tcb ~size ~dst in
      d
    | Vm.Isa.Free { addr } ->
      let _sz, d = Sem.free_ st tcb ~addr in
      d
    | Vm.Isa.Exit ->
      let joiners, d = Sem.exit_thread st tcb in
      wake c joiners;
      d
    | Vm.Isa.Goto _ | Vm.Isa.If _ | Vm.Isa.Cpr_begin | Vm.Isa.Cpr_end ->
      assert false (* fused by [fetch] *)
  in
  let after =
    if (not st.State.reference) && tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then begin
      (* The run queue is sampled after the first instruction (which may
         have woken threads); the event queue cannot have changed since
         the hop started, so its head bounds how long the sample stays
         valid. *)
      let q_empty = Sched.Deque.is_empty c.runq in
      let t_next =
        match Sim.Event_queue.peek_time st.State.evq with
        | Some t -> t
        | None -> max_int
      in
      let started = c.started.(ctx) in
      let quantum = st.State.costs.Vm.Costs.quantum in
      (* Fold the deopt predicate into one bound: [s <= budget && s <
         bound && (s - started < quantum || (q_empty && s < t_next))] is
         [s < horizon] because every input is constant for the hop. The
         engine's bound is strict: at that instant its own event outranks
         the tick. *)
      let b = if c.budget = max_int then max_int else c.budget + 1 in
      let sched_h =
        let q = started + quantum in
        if q_empty && t_next > q then t_next else q
      in
      let horizon = Stdlib.min (Stdlib.min b (c.bound ())) sched_h in
      let vend =
        Fuse.run_chain st tcb ~instrs:c.instrs ~horizon
          ~vstart:(t0 + Stdlib.max Sem.min_cost (ctrl + d))
          ()
      in
      vend - t0
    end
    else ctrl + d
  in
  c.on_hop tcb.Vm.Tcb.tid after;
  schedule_tick c ctx ~after

let fill c ctx =
  match Sched.Deque.steal_top c.runq with
  | None -> ()
  | Some tid ->
    Tidtab.set c.queued tid false;
    let st = c.st in
    let extra =
      if c.last_tid.(ctx) >= 0 && c.last_tid.(ctx) <> tid then begin
        Sim.Stats.bump c.ctx_switches;
        st.State.costs.Vm.Costs.ctx_switch
      end
      else 0
    in
    c.ctx_of.(ctx) <- Some tid;
    c.last_tid.(ctx) <- tid;
    c.started.(ctx) <- State.now st;
    if extra = 0 then dispatch c ctx (State.thread st tid)
    else schedule_tick c ctx ~after:extra

let fill_all c =
  if not (Sched.Deque.is_empty c.runq) then
    for ctx = 0 to Array.length c.ctx_of - 1 do
      if c.ctx_of.(ctx) = None then fill c ctx
    done

let tick c ctx =
  let st = c.st in
  match c.ctx_of.(ctx) with
  | None -> fill c ctx
  | Some tid -> (
    let tcb = State.thread st tid in
    match tcb.Vm.Tcb.wait with
    | Vm.Tcb.Runnable ->
      let costs = st.State.costs in
      if
        State.now st - c.started.(ctx) >= costs.Vm.Costs.quantum
        && not (Sched.Deque.is_empty c.runq)
      then begin
        (* Quantum expired and others are waiting: preempt. *)
        c.ctx_of.(ctx) <- None;
        make_runnable c tid;
        Sim.Stats.bump c.preemptions;
        fill c ctx
      end
      else dispatch c ctx tcb
    | Vm.Tcb.On_mutex _ | Vm.Tcb.On_cond _ | Vm.Tcb.Reacquire _
    | Vm.Tcb.On_barrier _ | Vm.Tcb.On_join _ | Vm.Tcb.On_token | Vm.Tcb.Done ->
      c.ctx_of.(ctx) <- None;
      fill c ctx)

(* ------------------------------------------------------------------ *)
(* The Pthreads baseline: the core and nothing else                    *)
(* ------------------------------------------------------------------ *)

type event = Tick of int

let run ?blocks config program =
  let st =
    State.create ?blocks ~reference:config.reference ~program ~costs:config.costs
      ~n_contexts:config.n_contexts ~seed:config.seed ()
  in
  let c = core ~tick:(fun ctx -> Tick ctx) ~max_cycles:config.max_cycles st in
  make_runnable c State.main_tid;
  fill_all c;
  let rec loop () =
    match Sim.Event_queue.pop st.State.evq with
    | None ->
      if State.all_exited st then State.mk_result st ~dnc:false
      else
        raise
          (State.Deadlock
             (Printf.sprintf "baseline: %d live threads, no pending events"
                st.State.live_threads))
    | Some (time, Tick ctx) -> (
      match config.max_cycles with
      | Some budget when time > budget -> State.mk_result st ~dnc:true
      | Some _ | None ->
        tick c ctx;
        fill_all c;
        loop ())
  in
  loop ()
