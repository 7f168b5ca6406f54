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

type event = Tick of int

type eng = {
  st : event State.t;
  sched : Sched.Scheduler.t;
  ctx_of : int option array;  (* context -> running tid *)
  last_tid : int array;  (* context -> last tid it ran, -1 if none *)
  started : int array;  (* context -> time current thread got the context *)
  queued : (int, unit) Hashtbl.t;  (* tids currently in the run queue *)
  budget : int;  (* max_cycles, or max_int *)
  instrs : int ref;  (* cached "instrs" counter *)
}

let on_ctx eng tid = Array.exists (fun o -> o = Some tid) eng.ctx_of

let make_runnable eng ~ctx_hint tid =
  if (not (Hashtbl.mem eng.queued tid)) && not (on_ctx eng tid) then begin
    Hashtbl.add eng.queued tid ();
    Sched.Scheduler.enqueue eng.sched ~ctx_hint tid
  end

let schedule_tick eng ctx ~after =
  let now = State.now eng.st in
  ignore
    (Sim.Event_queue.schedule eng.st.State.evq ~prio:(1 + ctx)
       ~time:(now + Stdlib.max Sem.min_cost after)
       (Tick ctx))

(* Execute one instruction of [tcb] on [ctx], then as much of the
   following fused block as stays unobservable, and schedule the
   context's next tick at the chain's completion time. Control-flow
   instructions are fused into the next real instruction at one cycle
   each. *)
let dispatch eng ctx (tcb : Vm.Tcb.t) =
  let st = eng.st in
  let t0 = State.now st in
  let ctrl = ref 0 in
  let rec fetch () =
    match Vm.Tcb.current_instr tcb with
    | None -> Vm.Isa.Exit
    | Some (Vm.Isa.Goto target) ->
      tcb.Vm.Tcb.pc <- target;
      incr ctrl;
      fetch ()
    | Some (Vm.Isa.If { cond; target }) ->
      tcb.Vm.Tcb.pc <-
        (if cond tcb.Vm.Tcb.regs then target else tcb.Vm.Tcb.pc + 1);
      incr ctrl;
      fetch ()
    | Some (Vm.Isa.Cpr_begin) ->
      tcb.Vm.Tcb.in_cpr_region <- true;
      tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1;
      incr ctrl;
      fetch ()
    | Some (Vm.Isa.Cpr_end) ->
      tcb.Vm.Tcb.in_cpr_region <- false;
      tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1;
      incr ctrl;
      fetch ()
    | Some i -> i
  in
  let instr = fetch () in
  incr eng.instrs;
  Vm.Block.profile_ctrl st.State.stats !ctrl;
  Vm.Block.profile_instr st.State.stats instr;
  (* Advance past the instruction before executing it, so blocked threads
     resume after it (see {!Sem}). [Exit] needs no pc update. *)
  (match instr with Vm.Isa.Exit -> () | _ -> tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1);
  let wake ?(hint = ctx) tids = List.iter (make_runnable eng ~ctx_hint:hint) tids in
  let d =
    match instr with
    | Vm.Isa.Work { cost; run } | Vm.Isa.Opaque { cost; run } ->
      Sem.exec_work st tcb ~cost ~run
    | Vm.Isa.Lock { m } ->
      let acquired, d = Sem.try_lock st tcb (m tcb.Vm.Tcb.regs) in
      if acquired then tcb.Vm.Tcb.lock_depth <- tcb.Vm.Tcb.lock_depth + 1;
      d
    | Vm.Isa.Unlock { m } ->
      let woken, d = Sem.unlock st tcb (m tcb.Vm.Tcb.regs) in
      tcb.Vm.Tcb.lock_depth <- tcb.Vm.Tcb.lock_depth - 1;
      (match woken with Some w -> wake [ w ] | None -> ());
      d
    | Vm.Isa.Barrier { b } ->
      let released, d = Sem.barrier_arrive st tcb b in
      wake released;
      d
    | Vm.Isa.Cond_wait { c; m } ->
      let granted, d = Sem.cond_block st tcb ~c ~m in
      tcb.Vm.Tcb.lock_depth <- tcb.Vm.Tcb.lock_depth - 1;
      (match granted with Some w -> wake [ w ] | None -> ());
      d
    | Vm.Isa.Cond_signal { c; all } ->
      let _woken, runnable, d = Sem.cond_wake st ~c ~all in
      wake runnable;
      d
    | Vm.Isa.Atomic { var; rmw; dst } | Vm.Isa.Nonstd_atomic { var; rmw; dst } ->
      Sem.atomic_rmw st tcb ~var:(var tcb.Vm.Tcb.regs) ~rmw ~dst
    | Vm.Isa.Fork { group; proc; args; dst } ->
      let child, d = Sem.fork st tcb ~group ~proc ~args ~dst in
      wake [ child.Vm.Tcb.tid ];
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
      wake joiners;
      d
    | Vm.Isa.Goto _ | Vm.Isa.If _ | Vm.Isa.Cpr_begin | Vm.Isa.Cpr_end ->
      assert false (* fused above *)
  in
  if (not st.State.reference) && tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then begin
    (* The run queue is sampled after the first instruction (which may
       have woken threads); the event queue cannot have changed since the
       hop started, so its head bounds how long the sample stays valid. *)
    let q_empty = Sched.Scheduler.is_empty eng.sched in
    let t_next =
      match Sim.Event_queue.peek_time st.State.evq with
      | Some t -> t
      | None -> max_int
    in
    let started = eng.started.(ctx) in
    let quantum = st.State.costs.Vm.Costs.quantum in
    (* Fold the deopt predicate into one bound: [s <= budget &&
       (s - started < quantum || (q_empty && s < t_next))] is [s <
       horizon] because every input is constant for the hop. *)
    let b = if eng.budget = max_int then max_int else eng.budget + 1 in
    let sched_h =
      let q = started + quantum in
      if q_empty && t_next > q then t_next else q
    in
    let horizon = Stdlib.min b sched_h in
    let vend =
      Fuse.run_chain st tcb ~instrs:eng.instrs ~horizon
        ~on_fused:(fun _ _ -> ())
        ~vstart:(t0 + Stdlib.max Sem.min_cost (!ctrl + d))
        ()
    in
    schedule_tick eng ctx ~after:(vend - t0)
  end
  else schedule_tick eng ctx ~after:(!ctrl + d)

let fill eng ctx =
  match Sched.Scheduler.take eng.sched ~ctx with
  | None -> ()
  | Some (tid, stolen) ->
    Hashtbl.remove eng.queued tid;
    let st = eng.st in
    let costs = st.State.costs in
    let extra =
      (if stolen then costs.Vm.Costs.steal else 0)
      + if eng.last_tid.(ctx) >= 0 && eng.last_tid.(ctx) <> tid then begin
          Sim.Stats.incr st.State.stats "ctx_switches";
          costs.Vm.Costs.ctx_switch
        end
        else 0
    in
    eng.ctx_of.(ctx) <- Some tid;
    eng.last_tid.(ctx) <- tid;
    eng.started.(ctx) <- State.now st;
    if extra = 0 then dispatch eng ctx (State.thread st tid)
    else schedule_tick eng ctx ~after:extra

let fill_all eng =
  for ctx = 0 to Array.length eng.ctx_of - 1 do
    if eng.ctx_of.(ctx) = None then fill eng ctx
  done

let tick eng ctx =
  let st = eng.st in
  match eng.ctx_of.(ctx) with
  | None -> fill eng ctx
  | Some tid -> (
    let tcb = State.thread st tid in
    match tcb.Vm.Tcb.wait with
    | Vm.Tcb.Runnable ->
      let costs = st.State.costs in
      if
        State.now st - eng.started.(ctx) >= costs.Vm.Costs.quantum
        && not (Sched.Scheduler.is_empty eng.sched)
      then begin
        (* Quantum expired and others are waiting: preempt. *)
        eng.ctx_of.(ctx) <- None;
        make_runnable eng ~ctx_hint:ctx tid;
        Sim.Stats.incr st.State.stats "preemptions";
        fill eng ctx
      end
      else dispatch eng ctx tcb
    | Vm.Tcb.On_mutex _ | Vm.Tcb.On_cond _ | Vm.Tcb.Reacquire _
    | Vm.Tcb.On_barrier _ | Vm.Tcb.On_join _ | Vm.Tcb.On_token | Vm.Tcb.Done ->
      eng.ctx_of.(ctx) <- None;
      fill eng ctx)

let run ?blocks config program =
  let st =
    State.create ?blocks ~reference:config.reference ~program ~costs:config.costs
      ~n_contexts:config.n_contexts ~seed:config.seed ()
  in
  let eng =
    {
      st;
      sched = Sched.Scheduler.create Sched.Scheduler.Fifo ~n_contexts:config.n_contexts;
      ctx_of = Array.make config.n_contexts None;
      last_tid = Array.make config.n_contexts (-1);
      started = Array.make config.n_contexts 0;
      queued = Hashtbl.create 64;
      budget = Option.value ~default:max_int config.max_cycles;
      instrs = Sim.Stats.counter st.State.stats "instrs";
    }
  in
  make_runnable eng ~ctx_hint:0 State.main_tid;
  fill_all eng;
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
        tick eng ctx;
        fill_all eng;
        loop ())
  in
  loop ()
