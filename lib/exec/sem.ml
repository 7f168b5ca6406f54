let min_cost = Vm.Costs.min_instr_cost

let dur base extra = Stdlib.max min_cost (base + extra)

(* Race-sanitizer happens-before edges; observation only, never charged.
   Mutex edges live in {!State.set_holder}; word accesses in
   {!State.env_of}. *)
let tsan st f = match st.State.tsan with Some ts -> f ts | None -> ()

let exec_work st (tcb : Vm.Tcb.t) ~cost ~run =
  let declared = cost tcb.Vm.Tcb.regs in
  let env = State.env_of st tcb in
  run env;
  dur declared (State.take_acc_cost st)

let try_lock st (tcb : Vm.Tcb.t) m =
  let costs = st.State.costs in
  let mu = st.State.mutexes.(m) in
  match mu.State.holder with
  | None ->
    State.set_holder st m (Some tcb.Vm.Tcb.tid);
    (true, dur costs.Vm.Costs.lock 0)
  | Some h when h = tcb.Vm.Tcb.tid ->
    invalid_arg "Sem.try_lock: recursive acquisition (workload bug)"
  | Some _ ->
    mu.State.mwaiters <- Fifo.push mu.State.mwaiters tcb.Vm.Tcb.tid;
    tcb.Vm.Tcb.wait <- Vm.Tcb.On_mutex m;
    (false, dur costs.Vm.Costs.lock 0)

let grant_next st m =
  let mu = st.State.mutexes.(m) in
  match Fifo.pop mu.State.mwaiters with
  | None ->
    State.set_holder st m None;
    None
  | Some (w, rest) ->
    mu.State.mwaiters <- rest;
    State.set_holder st m (Some w);
    let wt = State.thread st w in
    wt.Vm.Tcb.wait <- Vm.Tcb.Runnable;
    Some w

let unlock st (tcb : Vm.Tcb.t) m =
  let costs = st.State.costs in
  let mu = st.State.mutexes.(m) in
  (match mu.State.holder with
  | Some h when h = tcb.Vm.Tcb.tid -> ()
  | Some _ | None -> invalid_arg "Sem.unlock: not the holder (workload bug)");
  (grant_next st m, dur costs.Vm.Costs.unlock 0)

let cond_block st (tcb : Vm.Tcb.t) ~c ~m =
  let costs = st.State.costs in
  let mu = st.State.mutexes.(m) in
  (match mu.State.holder with
  | Some h when h = tcb.Vm.Tcb.tid -> ()
  | Some _ | None -> invalid_arg "Sem.cond_block: caller must hold the mutex");
  let granted = grant_next st m in
  let cv = st.State.conds.(c) in
  cv.State.sleepers <- Fifo.push cv.State.sleepers tcb.Vm.Tcb.tid;
  tcb.Vm.Tcb.wait <- Vm.Tcb.On_cond { c; m };
  (granted, dur (costs.Vm.Costs.condvar + costs.Vm.Costs.unlock) 0)

let reacquire st w m =
  let mu = st.State.mutexes.(m) in
  let wt = State.thread st w in
  match mu.State.holder with
  | None ->
    State.set_holder st m (Some w);
    wt.Vm.Tcb.wait <- Vm.Tcb.Runnable;
    true
  | Some _ ->
    mu.State.mwaiters <- Fifo.push mu.State.mwaiters w;
    wt.Vm.Tcb.wait <- Vm.Tcb.On_mutex m;
    false

let cond_wake st ~c ~all =
  let costs = st.State.costs in
  let cv = st.State.conds.(c) in
  let woken, remaining =
    match Fifo.pop cv.State.sleepers with
    | None -> ([], Fifo.empty)
    | Some (w, rest) ->
      if all then (Fifo.to_list cv.State.sleepers, Fifo.empty)
      else ([ w ], rest)
  in
  cv.State.sleepers <- remaining;
  let woken =
    List.map
      (fun w ->
        match (State.thread st w).Vm.Tcb.wait with
        | Vm.Tcb.On_cond { m; _ } -> (w, m)
        | _ -> invalid_arg "Sem.cond_wake: sleeper not On_cond")
      woken
  in
  let runnable =
    List.filter_map
      (fun (w, m) -> if reacquire st w m then Some w else None)
      woken
  in
  (woken, runnable, dur costs.Vm.Costs.condvar 0)

let barrier_arrive st (tcb : Vm.Tcb.t) b =
  let costs = st.State.costs in
  let br = st.State.barriers.(b) in
  let tid = tcb.Vm.Tcb.tid in
  let arrived = tid :: br.State.arrived in
  if List.length arrived >= br.State.parties then begin
    br.State.arrived <- [];
    tsan st (fun ts -> Tsan.on_barrier ts ~b ~parties:arrived);
    let others = List.filter (fun t -> t <> tid) arrived in
    List.iter
      (fun t -> (State.thread st t).Vm.Tcb.wait <- Vm.Tcb.Runnable)
      others;
    tcb.Vm.Tcb.wait <- Vm.Tcb.Runnable;
    (others, dur costs.Vm.Costs.barrier_entry 0)
  end
  else begin
    br.State.arrived <- arrived;
    tcb.Vm.Tcb.wait <- Vm.Tcb.On_barrier b;
    ([], dur costs.Vm.Costs.barrier_entry 0)
  end

let atomic_rmw st (tcb : Vm.Tcb.t) ~var ~rmw ~dst =
  let costs = st.State.costs in
  tsan st (fun ts -> Tsan.on_atomic ts ~tid:tcb.Vm.Tcb.tid ~var);
  let old = State.read_atomic st var in
  let v = rmw ~old tcb.Vm.Tcb.regs in
  State.write_atomic st var v;
  tcb.Vm.Tcb.regs.(dst) <- old;
  (* write_atomic notes a pre-image, which accrues tracked-access cost;
     absorb it here rather than letting it leak into whichever exec_work
     runs next (possibly on another thread). *)
  dur costs.Vm.Costs.atomic (State.take_acc_cost st)

let fork st (tcb : Vm.Tcb.t) ~group ~proc ~args ~dst =
  let costs = st.State.costs in
  let child = State.spawn st ~group ~proc ~args:(args tcb.Vm.Tcb.regs) in
  tcb.Vm.Tcb.regs.(dst) <- child.Vm.Tcb.tid;
  tsan st (fun ts ->
      Tsan.on_spawn ts ~parent:tcb.Vm.Tcb.tid ~child:child.Vm.Tcb.tid);
  (child, dur costs.Vm.Costs.fork_thread 0)

let join st (tcb : Vm.Tcb.t) ~target =
  let costs = st.State.costs in
  let tt = State.thread st target in
  match tt.Vm.Tcb.wait with
  | Vm.Tcb.Done ->
    tsan st (fun ts -> Tsan.on_join ts ~joiner:tcb.Vm.Tcb.tid ~target);
    (true, dur costs.Vm.Costs.join 0)
  | _ ->
    tt.Vm.Tcb.joiners <- tcb.Vm.Tcb.tid :: tt.Vm.Tcb.joiners;
    tcb.Vm.Tcb.wait <- Vm.Tcb.On_join target;
    (false, dur costs.Vm.Costs.join 0)

let exit_thread st (tcb : Vm.Tcb.t) =
  let costs = st.State.costs in
  tcb.Vm.Tcb.wait <- Vm.Tcb.Done;
  st.State.live_threads <- st.State.live_threads - 1;
  let joiners = tcb.Vm.Tcb.joiners in
  tcb.Vm.Tcb.joiners <- [];
  List.iter
    (fun j ->
      tsan st (fun ts -> Tsan.on_join ts ~joiner:j ~target:tcb.Vm.Tcb.tid);
      (State.thread st j).Vm.Tcb.wait <- Vm.Tcb.Runnable)
    joiners;
  (joiners, dur costs.Vm.Costs.join 0)

let alloc st (tcb : Vm.Tcb.t) ~size ~dst =
  let costs = st.State.costs in
  let n = size tcb.Vm.Tcb.regs in
  let a = Vm.Mem.alloc st.State.mem n in
  tcb.Vm.Tcb.regs.(dst) <- a;
  (* fresh block: erase stale shadows so address reuse across threads
     cannot fabricate races *)
  tsan st (fun ts -> Tsan.on_alloc ts ~addr:a ~size:n);
  (a, dur costs.Vm.Costs.alloc 0)

let free_ st (tcb : Vm.Tcb.t) ~addr =
  let costs = st.State.costs in
  let a = addr tcb.Vm.Tcb.regs in
  let size =
    match Vm.Mem.block_size st.State.mem a with
    | Some s -> s
    | None -> invalid_arg "Sem.free_: not an allocated block"
  in
  Vm.Mem.free st.State.mem a;
  tsan st (fun ts -> Tsan.on_free ts ~addr:a ~size);
  (size, dur costs.Vm.Costs.free 0)
