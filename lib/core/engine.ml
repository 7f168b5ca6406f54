module Tidtab = Exec.Tidtab

type recovery = Selective | Basic

type config = {
  n_contexts : int;
  seed : int;
  max_cycles : int option;
  ordering : Order.scheme;
  recovery : recovery;
  injector : Faults.Injector.config;
  costs : Vm.Costs.t;
  revoke_contexts : bool;
      (** treat [Resource_revocation] exceptions as permanent: the struck
          context is retired from service and the program continues on
          the remaining ones (§3.5's fatal-exception extension) *)
  wal_stable : bool;
      (** serialize the WAL to "stable storage" (implied by [crash_lsn];
          harmless otherwise — appends cost the same simulated cycles
          either way) *)
  crash_lsn : int option;
      (** crash the whole runtime immediately after this WAL record is
          written (the crash-sweep trigger: one run per record boundary) *)
  reference : bool;  (* single-step reference run; tests only *)
}

let default_config =
  {
    n_contexts = 24;
    seed = 1;
    max_cycles = None;
    ordering = Order.Balance_aware;
    recovery = Selective;
    injector = Faults.Injector.default_config;
    costs = Vm.Costs.default;
    revoke_contexts = false;
    wal_stable = false;
    crash_lsn = None;
    reference = false;
  }

(* Squashed sub-threads since the last retirement before the run is
   declared DNC. *)
let livelock_squashes = 100_000

type victim = V_sub of int | V_runtime

type event =
  | Tick of int
  | Retire_check
  | Fault_occur of { ctx : int; kind : Faults.Injector.kind }
  | Fault_report of { victim : victim; ctx : int; kind : Faults.Injector.kind }
  | Recovery_done

(* The boundary-path counters, resolved once per engine (see
   [Sim.Stats.handle]). *)
type counters = {
  subthreads : Sim.Stats.handle;
  tokens : Sim.Stats.handle;
  sync_parks : Sim.Stats.handle;
  retired : Sim.Stats.handle;
  steals : Sim.Stats.handle;
  opaque_calls : Sim.Stats.handle;
  flattened_locks : Sim.Stats.handle;
  restart_subs : Sim.Stats.handle;
  nonstd_unprotected : Sim.Stats.handle;
  stale_frees : Sim.Stats.handle;
  sub_cycles : Sim.Stats.sampler;
}

let counters stats =
  let h = Sim.Stats.handle stats in
  {
    subthreads = h "gprs.subthreads";
    tokens = h "gprs.tokens";
    sync_parks = h "gprs.sync_parks";
    retired = h "gprs.retired";
    steals = h "gprs.steals";
    opaque_calls = h "gprs.opaque_calls";
    flattened_locks = h "gprs.flattened_locks";
    restart_subs = h "gprs.restart_subs";
    nonstd_unprotected = h "gprs.nonstd_unprotected";
    stale_frees = h "gprs.stale_frees";
    sub_cycles = Sim.Stats.sampler stats "gprs.sub_cycles";
  }

type eng = {
  cfg : config;
  st : event Exec.State.t;
  sched : Sched.Scheduler.t;
  ctx_of : int option array;
  tick_handle : Sim.Event_queue.handle option array;
  busy_until : int array;
  dead_ctx : bool array;  (* permanently revoked contexts *)
  mutable n_dead : int;  (* count of [true] in [dead_ctx] *)
  order : Order.t;
  rol : Rol.t;
  wal : Wal.t;
  mutable next_sub_id : int;
  (* mutex -> the youngest sub-thread id that released it (see
     [flattens]); after a cold restart, the youngest id before it. *)
  released_by : int array;
  pool : Subthread.pool;  (* recycled sub-thread records *)
  cur_sub : Subthread.t option Tidtab.t;  (* tid -> current sub-thread *)
  (* tid -> the thread's history buffer: one copy-on-write undo log per
     thread, marked at each of its sub-threads' starts. The buffer of an
     exited thread goes to [spare_journals] when its last sub-thread
     retires. *)
  journals : Exec.Undo_log.t option Tidtab.t;
  mutable spare_journals : Exec.Undo_log.t list;
  (* Id of the sub-thread whose epoch the armed undo hook
     ([Exec.State.current_undo]) records, or -1 when disarmed. *)
  mutable undo_owner : int;
  pending_delay : int Tidtab.t;  (* tid -> cycles owed at next dispatch *)
  queued : bool Tidtab.t;
  destroyed : bool Tidtab.t;  (* tids removed by recovery *)
  mutable recovering : bool;
  mutable restart_pending : int list;  (* tids to release at Recovery_done *)
  mutable interrupted : (int * int) list;  (* Basic: (ctx, busy_until) to resume *)
  mutable pending_reports : victim list;
  mutable squashed_since_retire : int;
  mutable injector : Faults.Injector.t;
  mutable grant_guard : int;  (* re-entrancy depth of try_grant *)
  (* Scheduled times of pending Fault_occur / Fault_report events, sorted
     ascending: the fused-dispatch horizon. A chain must not execute a
     boundary at or past the head — at that instant the fault event
     outranks the tick and may squash or stall this very thread. *)
  mutable fault_times : int list;
  budget : int;  (* max_cycles, or max_int *)
  instrs : int ref;  (* cached "instrs" counter *)
  ctrs : counters;
  ring : Event_ring.t;
  mutable io_tid : int;  (* thread being dispatched: owner of Io_op appends *)
}

let now eng = Exec.State.now eng.st

(* [GPRS_DEBUG] turns on the event ring and, on a DNC run, the wedge dump
   that prints it. *)
let debug () = Sys.getenv_opt "GPRS_DEBUG" <> None

let default_ring () =
  let r = Event_ring.create () in
  if debug () then Event_ring.enable r ~capacity:4096;
  r

(* ------------------------------------------------------------------ *)
(* Whole-runtime crashes                                               *)
(* ------------------------------------------------------------------ *)

(* Raised internally at the armed crash LSN or an armed fault point;
   caught at the outermost run loop, where the durable remains of the
   machine are captured. *)
exception Crash_signal

(* Named fault-point seams (Faults.Points). Run-time seams decline to
   fire while the engine is recovering — replayed work must not
   re-trigger the fault that killed it; the armed crash-LSN hook has the
   same guard. Recovery-side points (cold_restart, recovery_analysis,
   recovery_redo, recovery_undo) have no such guard: recovery is exactly
   when they are meant to fire. Returns whether the armed action was
   [skip]: {!Faults.Points.supported} offers it only at the checkpoint
   seams, so every other seam ignores the result. *)
let fire_point eng p =
  (not eng.recovering)
  &&
  match Faults.Points.sample p with
  | None -> false
  | Some Faults.Points.Skip_fire -> true
  | Some Faults.Points.Crash_fire -> raise Crash_signal
  | Some Faults.Points.Torn_fire ->
    Wal.tear_stable eng.wal;
    raise Crash_signal

(* Every WAL op record the engine writes goes through here: the record
   boundary is where the armed crash LSN ("crash at every WAL-record
   boundary") and the [Wal_append] point trigger. A cold-restarted
   engine's config has no crash LSN: it already fired. *)
let append eng ~order op =
  let lsn = Wal.append eng.wal ~at:(now eng) ~order op in
  (match eng.cfg.crash_lsn with
  | Some k when lsn = k && not eng.recovering -> raise Crash_signal
  | Some _ | None -> ());
  ignore (fire_point eng Faults.Points.Wal_append)

(* What survives a crash of the runtime. Volatile and gone: the scheduler
   queues, the ROL ring structure, the engine-side per-tid tables, every
   pending event, per-context assignments. Durable: the serialized WAL,
   the architectural state in [d_st] (memory words, atomics, file
   contents, TCBs), the history-buffer checkpoints of the in-flight
   sub-threads (their [saved] registers, and the per-thread copy-on-write
   undo logs their positions index, live on stable storage until
   replaced, §3.2), the order-enforcer rotation
   (part of the checkpoint's active-order table), the revoked-context and
   destroyed-thread maps, and the injector stream position. *)
type crash_dump = {
  d_cfg : config;
  d_st : event Exec.State.t;
  d_image : string;  (* serialized WAL at the instant of the crash *)
  d_cycle : int;
  d_subs : Subthread.t list;  (* in-flight sub-threads, oldest first *)
  d_journals : Exec.Undo_log.t option Tidtab.t;
  d_destroyed : bool Tidtab.t;
  d_order : Order.t;
  d_injector : Faults.Injector.t;
  d_dead_ctx : bool array;
  d_ring : Event_ring.t;  (* host-side debugging record, kept across restart *)
}

exception Crashed of crash_dump

let capture eng =
  let st = eng.st in
  {
    d_cfg = eng.cfg;
    d_st = st;
    d_image = Option.value ~default:"" (Wal.stable_image eng.wal);
    d_cycle = now eng;
    d_subs = Rol.to_list eng.rol;
    d_journals = eng.journals;
    d_destroyed = eng.destroyed;
    d_order = eng.order;
    d_injector = eng.injector;
    d_dead_ctx = eng.dead_ctx;
    d_ring = eng.ring;
  }

let dump_wal_image d = d.d_image
let dump_active_ids d = List.map (fun (s : Subthread.t) -> s.Subthread.id) d.d_subs

let add_fault_time eng t = eng.fault_times <- List.sort compare (t :: eng.fault_times)

let remove_fault_time eng t =
  let rec rm = function
    | [] -> []
    | x :: r -> if x = t then r else x :: rm r
  in
  eng.fault_times <- rm eng.fault_times

let fault_horizon eng =
  match eng.fault_times with [] -> max_int | t :: _ -> t

(* ------------------------------------------------------------------ *)
(* Sub-thread bookkeeping                                              *)
(* ------------------------------------------------------------------ *)

let cur_sub_opt eng tid = Tidtab.get eng.cur_sub tid

let cur_sub eng tid =
  match cur_sub_opt eng tid with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Gprs: thread %d has no current sub" tid)

(* The thread's history buffer, taken from the spares on first use; the
   table's [Some] cell is what the undo hook holds, so arming it
   allocates nothing. *)
let journal_cell eng tid =
  match Tidtab.get eng.journals tid with
  | Some _ as cell -> cell
  | None ->
    let cell =
      match eng.spare_journals with
      | j :: rest ->
        eng.spare_journals <- rest;
        Some j
      | [] -> Some (Exec.Undo_log.create ())
    in
    Tidtab.set eng.journals tid cell;
    cell

let journal eng tid = Option.get (journal_cell eng tid)

(* Point the tracked-write hook at [sub]'s epoch: its thread's buffer,
   whose newest mark is [sub]'s while [sub] is the thread's current
   sub-thread. *)
let arm_undo eng (sub : Subthread.t) =
  eng.st.Exec.State.current_undo <- journal_cell eng sub.Subthread.tid;
  eng.undo_owner <- sub.Subthread.id

let disarm_undo eng =
  eng.st.Exec.State.current_undo <- None;
  eng.undo_owner <- -1

(* Cost of generating a sub-thread: token handling, generation, register
   checkpoint, ROL insertion and the WAL appends — the paper's t_g. *)
let boundary_cost eng =
  let c = eng.cfg.costs in
  c.Vm.Costs.token_pass + c.Vm.Costs.subthread_create + c.Vm.Costs.reg_checkpoint
  + c.Vm.Costs.rol_insert + (2 * c.Vm.Costs.wal_append)

let new_sub eng (tcb : Vm.Tcb.t) =
  let id = eng.next_sub_id in
  eng.next_sub_id <- id + 1;
  let sub =
    Subthread.acquire eng.pool ~id ~tid:tcb.Vm.Tcb.tid ~now:(now eng) ~tcb
  in
  sub.Subthread.undo_at <- Exec.Undo_log.mark (journal eng tcb.Vm.Tcb.tid);
  (* The checkpoint may sit inside critical sections: record the held
     mutexes so a restore re-grants them. The TCB maintains its held set
     incrementally at every holder transition (descending index order,
     matching the old whole-table scan), so capture is aliasing the
     list — O(1), no per-boundary O(#mutexes) walk. A checkpoint taken
     while queued for a mutex (a condvar wake-sub) records that too. *)
  sub.Subthread.held_locks <- tcb.Vm.Tcb.held_mutexes;
  (match tcb.Vm.Tcb.wait with
  | Vm.Tcb.On_mutex m -> sub.Subthread.pending_mutex <- Some m
  | Vm.Tcb.Runnable | Vm.Tcb.On_cond _ | Vm.Tcb.Reacquire _ | Vm.Tcb.On_barrier _
  | Vm.Tcb.On_join _ | Vm.Tcb.On_token | Vm.Tcb.Done ->
    ());
  Rol.insert eng.rol sub;
  append eng ~order:id (Wal.Rol_insert { sub = id });
  Tidtab.set eng.cur_sub tcb.Vm.Tcb.tid (Some sub);
  Sim.Stats.bump eng.ctrs.subthreads;
  sub

(* Drop a record back into the pool once nothing can reach it: clear the
   current-sub slot if it still points here (a thread's last sub survives
   its exit in the table) and the undo hook if it was left armed. *)
let release_sub eng (sub : Subthread.t) =
  (match Tidtab.get eng.cur_sub sub.Subthread.tid with
  | Some s when s == sub -> Tidtab.set eng.cur_sub sub.Subthread.tid None
  | Some _ | None -> ());
  if eng.undo_owner = sub.Subthread.id then disarm_undo eng;
  Subthread.release eng.pool sub

(* [tid]'s current sub-thread released mutex [m]. *)
let note_release eng tid m =
  eng.released_by.(m) <- Stdlib.max eng.released_by.(m) (cur_sub eng tid).Subthread.id

(* Every sync point is a sub-thread boundary but one: a lock taken inside
   a critical section joins the enclosing sub-thread (nested-lock
   flattening, §3.2). Recovery squashes only sub-threads younger than a
   victim, so flattening is sound only while data under the mutex flows
   from older sub-threads to younger ones: the mutex must be free, and
   every sub-thread that released it older than the taker's. Otherwise
   the nested lock is a boundary too. *)
let flattens eng (tcb : Vm.Tcb.t) m =
  tcb.Vm.Tcb.held_mutexes <> []
  && eng.st.Exec.State.mutexes.(m).Exec.State.holder = None
  && eng.released_by.(m) < (cur_sub eng tcb.Vm.Tcb.tid).Subthread.id

let add_delay eng tid d =
  Tidtab.set eng.pending_delay tid (Tidtab.get eng.pending_delay tid + d)

let take_delay eng tid =
  let d = Tidtab.get eng.pending_delay tid in
  if d <> 0 then Tidtab.set eng.pending_delay tid 0;
  d

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let make_runnable eng ~ctx_hint tid =
  let queued = Tidtab.get eng.queued tid
  and on_c = Exec.Baseline.on_ctx eng.ctx_of tid
  and destroyed = Tidtab.get eng.destroyed tid in
  Event_ring.make_runnable eng.ring ~at:(now eng) ~tid ~queued ~on_ctx:on_c
    ~destroyed;
  if (not queued) && (not on_c) && not destroyed then begin
    (* A flag, not a Hashtbl.add: a re-add after a missed remove cannot
       shadow-stack bindings. *)
    Tidtab.set eng.queued tid true;
    (* §3.2: the work queues are reconstructible from the log. *)
    (let id = (cur_sub eng tid).Subthread.id in
     append eng ~order:id (Wal.Sched_enqueue { sub = id }));
    Sched.Scheduler.enqueue eng.sched ~ctx_hint tid
  end

let schedule_tick eng ctx ~after =
  let t = now eng + Stdlib.max Exec.Sem.min_cost after in
  eng.busy_until.(ctx) <- t;
  eng.tick_handle.(ctx) <-
    Some
      (Sim.Event_queue.schedule eng.st.Exec.State.evq ~prio:(1 + ctx) ~time:t
         (Tick ctx))

let schedule_retire_check eng ~at =
  ignore
    (Sim.Event_queue.schedule eng.st.Exec.State.evq
       ~time:(Stdlib.max at (now eng))
       Retire_check)

(* ------------------------------------------------------------------ *)
(* Token grants: boundary processing (DEX order enforcer)              *)
(* ------------------------------------------------------------------ *)

let complete_current eng tid =
  let sub = cur_sub eng tid in
  sub.Subthread.status <- Subthread.Complete (now eng);
  Sim.Stats.sample eng.ctrs.sub_cycles
    (float_of_int (now eng - sub.Subthread.started_at));
  match Rol.min_live_id eng.rol with
  | Some min_id when min_id = sub.Subthread.id ->
    schedule_retire_check eng
      ~at:(now eng + eng.cfg.costs.Vm.Costs.detection_latency + 1)
  | Some _ | None -> ()

(* A wake is a communication edge: the sleeper's continuation must be
   ordered after the waker's sub-thread, or selective restart could
   discard the wake and keep its consumer. Close the sleeper's sub-thread
   and open a fresh one (a current order id) at the wake point, aliased
   to the object the edge ran through. *)
let wake eng w a =
  complete_current eng w;
  let sub = new_sub eng (Exec.State.thread eng.st w) in
  Subthread.add_alias sub a;
  add_delay eng w (boundary_cost eng);
  sub

(* Perform the synchronization operation at [tcb]'s pc on behalf of its
   freshly created sub-thread. pc still points at the instruction. *)
let grant eng tid =
  let st = eng.st in
  let tcb = Exec.State.thread st tid in
  Sim.Stats.bump eng.ctrs.tokens;
  complete_current eng tid;
  let instr =
    match Vm.Tcb.current_instr tcb with None -> Vm.Isa.Exit | Some i -> i
  in
  Event_ring.grant eng.ring ~at:(now eng) ~tid instr ~pc:tcb.Vm.Tcb.pc;
  (match instr with
  | Vm.Isa.Exit -> ()
  | _ ->
    arm_undo eng (new_sub eng tcb);
    add_delay eng tid (boundary_cost eng);
    tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1);
  tcb.Vm.Tcb.wait <- Vm.Tcb.Runnable;
  let resume ?(also = []) () =
    make_runnable eng ~ctx_hint:tid tid;
    List.iter
      (fun w ->
        Order.set_eligible eng.order w true;
        make_runnable eng ~ctx_hint:w w)
      also
  in
  (match instr with
  | Vm.Isa.Lock { m } ->
    let m = m tcb.Vm.Tcb.regs in
    let sub = cur_sub eng tid in
    Subthread.add_alias sub (Subthread.Mutex m);
    let acquired, d = Exec.Sem.try_lock st tcb m in
    add_delay eng tid d;
    if acquired then resume ()
    else
      (* Queued on the mutex in token order; the unlock hands it over (no
         further turn needed). Until then the thread passes its turns —
         the token must not wait on it, since the holder may itself need
         a turn to release (a cond_wait inside the critical section). *)
      Order.set_eligible eng.order tid false
  | Vm.Isa.Barrier { b } ->
    let sub = cur_sub eng tid in
    Subthread.add_alias sub (Subthread.Barrier_obj b);
    let released, d = Exec.Sem.barrier_arrive st tcb b in
    (* The arrival that completes the episode is the release seam, and
       the waker of every other party. *)
    if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then begin
      ignore (fire_point eng Faults.Points.Barrier_release);
      List.iter
        (fun w ->
          let wsub = wake eng w (Subthread.Barrier_obj b) in
          wsub.Subthread.wake_barrier <- b;
          wsub.Subthread.releaser <- sub.Subthread.id)
        released
    end;
    add_delay eng tid d;
    if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then resume ~also:released ()
    else Order.set_eligible eng.order tid false
  | Vm.Isa.Cond_wait { c; m } ->
    let sub = cur_sub eng tid in
    Subthread.add_alias sub (Subthread.Condvar c);
    Subthread.add_alias sub (Subthread.Mutex m);
    let granted, d = Exec.Sem.cond_block st tcb ~c ~m in
    note_release eng tid m;
    add_delay eng tid d;
    Order.set_eligible eng.order tid false;
    (match granted with
    | Some w ->
      Order.set_eligible eng.order w true;
      make_runnable eng ~ctx_hint:w w
    | None -> ())
  | Vm.Isa.Cond_signal { c; all } ->
    Subthread.add_alias (cur_sub eng tid) (Subthread.Condvar c);
    let woken, runnable, d = Exec.Sem.cond_wake st ~c ~all in
    add_delay eng tid d;
    List.iter
      (fun (w, m) ->
        let wsub = wake eng w (Subthread.Condvar c) in
        Subthread.add_alias wsub (Subthread.Mutex m))
      woken;
    List.iter (fun w -> Order.set_eligible eng.order w true) runnable;
    resume ~also:runnable ()
  | Vm.Isa.Atomic { var; rmw; dst } ->
    let v = var tcb.Vm.Tcb.regs in
    Subthread.add_alias (cur_sub eng tid) (Subthread.Atomic_var v);
    let d = Exec.Sem.atomic_rmw st tcb ~var:v ~rmw ~dst in
    add_delay eng tid d;
    resume ()
  | Vm.Isa.Fork { group; proc; args; dst } ->
    let child, _os_cost = Exec.Sem.fork st tcb ~group ~proc ~args ~dst in
    let ctid = child.Vm.Tcb.tid in
    (cur_sub eng tid).Subthread.forked <-
      ctid :: (cur_sub eng tid).Subthread.forked;
    append eng ~order:(cur_sub eng tid).Subthread.id
      (Wal.Thread_create { tid = ctid });
    Order.add_thread eng.order ~tid:ctid ~group;
    (* Under DEX a fork creates a sub-thread, not an OS thread. *)
    let csub = new_sub eng child in
    ignore csub;
    add_delay eng tid (eng.cfg.costs.Vm.Costs.subthread_create);
    add_delay eng ctid (boundary_cost eng);
    resume ~also:[ ctid ] ()
  | Vm.Isa.Join { tid = target } ->
    let target = target tcb.Vm.Tcb.regs in
    Subthread.add_alias (cur_sub eng tid) (Subthread.Thread_edge target);
    let ready, d = Exec.Sem.join st tcb ~target in
    add_delay eng tid d;
    if ready then resume () else Order.set_eligible eng.order tid false
  | Vm.Isa.Exit ->
    Subthread.add_alias (cur_sub eng tid) (Subthread.Thread_edge tid);
    let joiners, _d = Exec.Sem.exit_thread st tcb in
    List.iter
      (fun j ->
        Order.set_eligible eng.order j true;
        make_runnable eng ~ctx_hint:j j)
      joiners;
    Order.remove_thread eng.order tid
  | Vm.Isa.Work _ | Vm.Isa.Opaque _ | Vm.Isa.Goto _ | Vm.Isa.If _
  | Vm.Isa.Unlock _ | Vm.Isa.Nonstd_atomic _ | Vm.Isa.Alloc _ | Vm.Isa.Free _
  | Vm.Isa.Cpr_begin | Vm.Isa.Cpr_end ->
    invalid_arg "Gprs.grant: not a synchronization point");
  (* Only communication operations consume a rotation turn; fork/join/
     exit boundaries are processed on arrival and must not steal turns
     from the threads the rotation is balancing. *)
  if Vm.Isa.is_communication instr then Order.advance eng.order ~granted:tid

(* Grant every turn that can be taken right now. Filling contexts can park
   further threads at sync points (their nested [try_grant] calls are
   guarded no-ops), so alternate granting and filling until neither makes
   progress. *)
let rec try_grant eng =
  if eng.grant_guard = 0 then begin
    eng.grant_guard <- 1;
    let holder_parked () =
      match Order.holder eng.order with
      | Some tid -> (Exec.State.thread eng.st tid).Vm.Tcb.wait = Vm.Tcb.On_token
      | None -> false
    in
    let progress = ref true in
    while !progress do
      progress := false;
      while holder_parked () do
        grant eng (Option.get (Order.holder eng.order))
      done;
      fill_all eng;
      if holder_parked () then progress := true
    done;
    eng.grant_guard <- 0
  end

(* ------------------------------------------------------------------ *)
(* Dispatch (non-preemptive work-stealing pool)                        *)
(* ------------------------------------------------------------------ *)

and dispatch eng ctx (tcb : Vm.Tcb.t) =
  let st = eng.st in
  let tid = tcb.Vm.Tcb.tid in
  let t0 = now eng in
  eng.io_tid <- tid;
  let sub = cur_sub eng tid in
  arm_undo eng sub;
  let pr = Exec.Fuse.fetch tcb in
  let instr = pr.Vm.Block.p_instr and ctrl = pr.Vm.Block.p_ctrl in
  incr eng.instrs;
  Vm.Block.profile_ctrl st.Exec.State.stats ctrl;
  Vm.Block.profile_instr st.Exec.State.stats instr;
  let nested_lock =
    match instr with
    | Vm.Isa.Lock { m } -> flattens eng tcb (m tcb.Vm.Tcb.regs)
    | _ -> false
  in
  if Vm.Isa.is_sync_point instr && not nested_lock then begin
    (* Sub-thread boundary: park for the deterministic turn. *)
    tcb.Vm.Tcb.wait <- Vm.Tcb.On_token;
    eng.ctx_of.(ctx) <- None;
    eng.tick_handle.(ctx) <- None;
    Sim.Stats.bump eng.ctrs.sync_parks;
    Event_ring.park eng.ring ~at:(now eng) ~tid instr ~pc:tcb.Vm.Tcb.pc;
    (* Fork, join and exit are sub-thread boundaries but not
       communication through shared objects: their boundary is processed
       on arrival (the fork order is the parent's program order; join and
       exit pair through the thread edge itself), so data-parallel
       programs incur no ordering waits — the paper's fork/join programs
       show near-zero ordering overhead (Fig. 8a). Communication
       operations wait for their deterministic turn, except under the
       recorded (nondeterministic) scheme, where arrival order is the
       recorded order. *)
    let immediate =
      (not (Vm.Isa.is_communication instr))
      || Order.scheme eng.order = Order.Recorded
    in
    if immediate then grant eng tid else try_grant eng;
    fill eng ctx
  end
  else begin
    tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1;
    let d =
      match instr with
      | Vm.Isa.Work { cost; run } -> Exec.Sem.exec_work st tcb ~cost ~run
      | Vm.Isa.Opaque { cost; run } ->
        (* Unknown mod-set (third-party code): conservative ⊤ dependence. *)
        sub.Subthread.global_dep <- not tcb.Vm.Tcb.in_cpr_region;
        Sim.Stats.bump eng.ctrs.opaque_calls;
        Exec.Sem.exec_work st tcb ~cost ~run
      | Vm.Isa.Nonstd_atomic { var; rmw; dst } ->
        (* Home-spun synchronization is invisible to DEX; outside a CPR
           region it forces conservative recovery. *)
        let v = var tcb.Vm.Tcb.regs in
        Subthread.add_alias sub (Subthread.Atomic_var v);
        if not tcb.Vm.Tcb.in_cpr_region then begin
          sub.Subthread.global_dep <- true;
          Sim.Stats.bump eng.ctrs.nonstd_unprotected
        end;
        Exec.Sem.atomic_rmw st tcb ~var:v ~rmw ~dst
      | Vm.Isa.Unlock { m } ->
        (* [Error] here models a lock-release/handoff timeout. *)
        ignore (fire_point eng Faults.Points.Lock_handoff);
        let m = m tcb.Vm.Tcb.regs in
        let woken, d = Exec.Sem.unlock st tcb m in
        note_release eng tid m;
        (match woken with
        | Some w ->
          Order.set_eligible eng.order w true;
          make_runnable eng ~ctx_hint:ctx w
        | None -> ());
        d
      | Vm.Isa.Alloc { size; dst } ->
        (* [Error] here models allocator failure. *)
        ignore (fire_point eng Faults.Points.Alloc_grant);
        let a, d = Exec.Sem.alloc st tcb ~size ~dst in
        let size = Option.get (Vm.Mem.block_size st.Exec.State.mem a) in
        append eng ~order:sub.Subthread.id (Wal.Alloc { addr = a; size });
        d + eng.cfg.costs.Vm.Costs.wal_append
      | Vm.Isa.Free { addr } ->
        (* Quarantined free: the block leaves the allocator only when
           this sub-thread retires (see Subthread.freed_blocks), so a
           squash can always undo the free without racing concurrent
           reuse. *)
        let a = addr tcb.Vm.Tcb.regs in
        (match Vm.Mem.block_size st.Exec.State.mem a with
        | None ->
          (* A restored pointer can go stale across deeply overlapped
             recoveries; quarantined reuse makes addresses unique until
             retirement, so skipping the free is sound. *)
          Sim.Stats.bump eng.ctrs.stale_frees
        | Some size ->
          sub.Subthread.freed_blocks <- (a, size) :: sub.Subthread.freed_blocks;
          append eng ~order:sub.Subthread.id (Wal.Free { addr = a; size }));
        eng.cfg.costs.Vm.Costs.free + eng.cfg.costs.Vm.Costs.wal_append
      | Vm.Isa.Lock { m } ->
        (* Nested lock on a free mutex, flattened ([flattens]). *)
        let m = m tcb.Vm.Tcb.regs in
        Subthread.add_alias sub (Subthread.Mutex m);
        let acquired, d = Exec.Sem.try_lock st tcb m in
        assert acquired;
        Sim.Stats.bump eng.ctrs.flattened_locks;
        d
      | Vm.Isa.Barrier _ | Vm.Isa.Cond_wait _ | Vm.Isa.Cond_signal _
      | Vm.Isa.Atomic _ | Vm.Isa.Join _ | Vm.Isa.Fork _ | Vm.Isa.Exit
      | Vm.Isa.Goto _ | Vm.Isa.If _ | Vm.Isa.Cpr_begin | Vm.Isa.Cpr_end ->
        assert false
    in
    let first = ctrl + d + take_delay eng tid in
    if
      (not eng.cfg.reference) && tcb.Vm.Tcb.wait = Vm.Tcb.Runnable
      && not eng.recovering
    then begin
      (* Non-preemptive pool: the only events that can deopt a running
         thread are fault occurrences/reports, so the horizon is the
         earliest pending one (it cannot move up mid-chain — it only
         changes at event pops). No pending delay can accrue mid-chain:
         delays are added at token grants and fills, neither of which
         targets a thread that is running on a context. *)
      let b = if eng.budget = max_int then max_int else eng.budget + 1 in
      let horizon = Stdlib.min b (fault_horizon eng) in
      (* The last-writer dependence flag and the additive counter land
         identically whether applied per instruction or per compiled
         entry. *)
      let on_commit ~opaques ~last_opaque_in_cpr =
        if opaques > 0 then begin
          sub.Subthread.global_dep <- not last_opaque_in_cpr;
          Sim.Stats.bump_by eng.ctrs.opaque_calls opaques
        end
      in
      let vend =
        Exec.Fuse.run_chain st tcb ~instrs:eng.instrs ~horizon ~on_commit
          ~vstart:(t0 + Stdlib.max Exec.Sem.min_cost first)
          ()
      in
      schedule_tick eng ctx ~after:(vend - t0)
    end
    else schedule_tick eng ctx ~after:first
  end

and fill eng ctx =
  (* [try_grant] may already have filled this context from inside a park
     path; never overwrite a live assignment. *)
  if
    eng.ctx_of.(ctx) = None
    && (not eng.dead_ctx.(ctx))
    && not (eng.recovering && eng.cfg.recovery = Basic)
  then
    match Sched.Scheduler.take eng.sched ~ctx with
    | None -> ()
    | Some (tid, stolen) ->
      Tidtab.set eng.queued tid false;
      if Tidtab.get eng.destroyed tid then fill eng ctx
      else begin
        let tcb = Exec.State.thread eng.st tid in
        Event_ring.fill eng.ring ~at:(now eng) ~ctx ~tid tcb.Vm.Tcb.wait;
        if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then begin
          eng.ctx_of.(ctx) <- Some tid;
          if stolen then begin
            Sim.Stats.bump eng.ctrs.steals;
            add_delay eng tid eng.cfg.costs.Vm.Costs.steal
          end;
          dispatch eng ctx tcb
        end
        else fill eng ctx
      end

and fill_all eng =
  if not (Sched.Scheduler.is_empty eng.sched) then
    for ctx = 0 to Array.length eng.ctx_of - 1 do
      if eng.ctx_of.(ctx) = None then fill eng ctx
    done

(* ------------------------------------------------------------------ *)
(* REX: retirement                                                     *)
(* ------------------------------------------------------------------ *)

let retire eng =
  let st = eng.st in
  let latency = eng.cfg.costs.Vm.Costs.detection_latency in
  let retired = Rol.retire_ready eng.rol ~now:(now eng) ~latency in
  if retired <> [] then begin
    eng.squashed_since_retire <- 0;
    List.iter
      (fun (sub : Subthread.t) ->
        Sim.Stats.bump eng.ctrs.retired;
        (* Quarantined frees become real at retirement (output commit). *)
        List.iter
          (fun (a, size) ->
            if Vm.Mem.block_size st.Exec.State.mem a = Some size then
              Vm.Mem.free st.Exec.State.mem a)
          sub.Subthread.freed_blocks;
        (* The thread's buffer forgets the spans of its sub-threads
           retired before this one; a thread's last sub-thread (it
           exited) hands the whole buffer back to the spares. *)
        (let tid = sub.Subthread.tid in
         match Tidtab.get eng.journals tid with
         | None -> ()
         | Some j -> (
           match cur_sub_opt eng tid with
           | Some c when c == sub ->
             Exec.Undo_log.reset j;
             Tidtab.set eng.journals tid None;
             eng.spare_journals <- j :: eng.spare_journals
           | Some _ | None -> Exec.Undo_log.drop_before j sub.Subthread.undo_at));
        (* Retirement drops the last internal reference (the ROL slot);
           the record can go back to the pool. *)
        release_sub eng sub)
      retired;
    (match Rol.min_live_id eng.rol with
    | Some min_id ->
      ignore (Wal.prune_below eng.wal ~order:min_id);
      (* If the new head is already complete, schedule its retirement. *)
      (match Rol.head eng.rol with
      | Some h -> (
        match h.Subthread.status with
        | Subthread.Complete c -> schedule_retire_check eng ~at:(c + latency + 1)
        | Subthread.Running | Subthread.Squashed -> ())
      | None -> ())
    | None -> ignore (Wal.prune_below eng.wal ~order:eng.next_sub_id));
    (* ARIES checkpoint at each retirement: the retired-order horizon,
       the active-order table, the allocator snapshot, and (inside the
       end record) the redo-start LSN. Bounds the cold-recovery redo
       scan to records since the last retirement. *)
    if Wal.stable_armed eng.wal then begin
      let brk, free, used = Vm.Mem.alloc_parts st.Exec.State.mem in
      let min_retired =
        match Rol.min_live_id eng.rol with
        | Some m -> m
        | None -> eng.next_sub_id
      in
      let active =
        List.map (fun (s : Subthread.t) -> s.Subthread.id) (Rol.to_list eng.rol)
      in
      (* Checkpoint fault seams: a skip at [begin] elides the whole
         checkpoint (analysis falls back to the previous one); a skip at
         [end] leaves a B record without its E — an incomplete
         checkpoint analysis must refuse to use. [wal_fsync] models the
         durability barrier after the pair; a torn write there loses the
         tail of the E record. *)
      if not (fire_point eng Faults.Points.Checkpoint_begin) then begin
        Wal.log_checkpoint_begin eng.wal;
        if not (fire_point eng Faults.Points.Checkpoint_end) then begin
          Wal.log_checkpoint_end eng.wal ~min_retired ~active ~brk ~free
            ~used;
          ignore (fire_point eng Faults.Points.Wal_fsync)
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* REX: recovery                                                       *)
(* ------------------------------------------------------------------ *)

(* The dependent walk of §3.4: younger sub-threads are squashed when they
   share an alias with, follow in program order, or were forked by, an
   already-squashed sub-thread. A single ascending pass reaches the
   fixpoint because dependence only flows from older to younger. *)
let compute_squash_set eng (victim : Subthread.t) =
  match eng.cfg.recovery with
  | Basic -> victim :: Rol.younger_than eng.rol victim.Subthread.id
  | Selective ->
    let squashed = ref [ victim ] in
    let squashed_tids = Hashtbl.create 8 in
    Hashtbl.replace squashed_tids victim.Subthread.tid ();
    let forked_tids = Hashtbl.create 8 in
    List.iter
      (fun t -> Hashtbl.replace forked_tids t ())
      victim.Subthread.forked;
    (* Accumulated union of the squashed alias sets: each younger
       sub-thread is tested against it with one word-wise intersection,
       equivalent to testing it against each squashed sub-thread in turn
       (union distributes over the existential intersection). *)
    let aset = Subthread.aset_create () in
    Subthread.aset_add aset victim;
    Rol.iter_younger eng.rol ~than:victim.Subthread.id (fun (s : Subthread.t) ->
        let dependent =
          Hashtbl.mem squashed_tids s.Subthread.tid
          || Hashtbl.mem forked_tids s.Subthread.tid
          || Subthread.aset_shares aset s
        in
        if dependent then begin
          squashed := s :: !squashed;
          Hashtbl.replace squashed_tids s.Subthread.tid ();
          List.iter (fun t -> Hashtbl.replace forked_tids t ()) s.Subthread.forked;
          Subthread.aset_add aset s
        end);
    List.rev !squashed

let destroy_thread eng tid =
  if not (Tidtab.get eng.destroyed tid) then begin
    Tidtab.set eng.destroyed tid true;
    let tcb = Exec.State.thread eng.st tid in
    if tcb.Vm.Tcb.wait <> Vm.Tcb.Done then
      eng.st.Exec.State.live_threads <- eng.st.Exec.State.live_threads - 1;
    tcb.Vm.Tcb.wait <- Vm.Tcb.Done;
    Order.remove_thread eng.order tid;
    Tidtab.set eng.cur_sub tid None;
    ignore (Sched.Scheduler.remove eng.sched tid);
    Tidtab.set eng.queued tid false;
    Sim.Stats.incr eng.st.Exec.State.stats "gprs.threads_destroyed"
  end

let cancel_ctx_of_thread eng tid =
  Array.iteri
    (fun ctx o ->
      if o = Some tid then begin
        (match eng.tick_handle.(ctx) with
        | Some h -> Sim.Event_queue.cancel eng.st.Exec.State.evq h
        | None -> ());
        eng.tick_handle.(ctx) <- None;
        eng.ctx_of.(ctx) <- None
      end)
    eng.ctx_of

(* Restart points: the oldest lost sub-thread of each affected thread, in
   the table's iteration order. *)
let restart_points (subs : Subthread.t list) =
  let oldest : (int, Subthread.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (s : Subthread.t) ->
      match Hashtbl.find_opt oldest s.Subthread.tid with
      | Some o when o.Subthread.id <= s.Subthread.id -> ()
      | Some _ | None -> Hashtbl.replace oldest s.Subthread.tid s)
    subs;
  List.rev (Hashtbl.fold (fun _ s acc -> s :: acc) oldest [])

(* The REX rollback (§3.4), shared by live recovery and cold restart.
   [losers] are the sub-threads whose work is lost, [ops] their WAL
   records newest first, and [restores] the restart point of each
   affected thread ({!restart_points}), in the order the caller resets
   them. Undoes the losers' writes and runtime operations, scrubs the
   rolled-back threads out of every synchronization object, restores
   each thread from its checkpoint into a replacement sub-thread and
   hands freed mutexes to stranded waiters. Returns the words restored,
   the WAL records undone and the restarted tids. *)
let rollback eng ~losers ~ops ~restores =
  let st = eng.st in
  (* Undo architectural state newest-sub first. For conflicting memory
     accesses in a race-free program, sub-thread order agrees with
     chronology, so per-sub copy-on-write replay is sound. A thread's
     losers are a suffix of its sub-threads, so each replay is the
     suffix of its thread's buffer from the loser's mark. *)
  let words = ref 0 in
  List.iter
    (fun (s : Subthread.t) ->
      s.Subthread.status <- Subthread.Squashed;
      words :=
        !words
        + Exec.Undo_log.replay_from ~mem:st.Exec.State.mem
            ~atomics:st.Exec.State.atomics ~io:st.Exec.State.io
            (journal eng s.Subthread.tid) ~from:s.Subthread.undo_at)
    (List.sort
       (fun (a : Subthread.t) b -> compare b.Subthread.id a.Subthread.id)
       losers);
  (* Runtime (WAL) operations are NOT ordered by sub-thread id — the
     allocator serves concurrent sub-threads in real time — so their undo
     walks the log in reverse LSN order (ARIES-style), across all losers
     at once. *)
  List.iter
    (fun (e : Wal.entry) ->
      match e.Wal.op with
      | Wal.Alloc { addr; size = _ } -> (
        match Vm.Mem.block_size st.Exec.State.mem addr with
        | Some _ -> Vm.Mem.undo_alloc st.Exec.State.mem addr
        | None -> ())
      | Wal.Free _ ->
        (* The free was quarantined: the block never left the allocator,
           so dropping the loser's freed_blocks list is the whole undo. *)
        ()
      | Wal.Thread_create { tid } -> destroy_thread eng tid
      | Wal.Rol_insert _ | Wal.Sched_enqueue _ | Wal.Io_op _ -> ())
    ops;
  (* Synchronization objects are architectural state. Scrub only the
     threads being rolled back (or destroyed) out of their queues; the
     per-thread restores below re-establish holders from the
     checkpoints. Other threads keep their registrations: a sleeper
     whose wait-sub retired must still be on the condvar when the signal
     arrives. *)
  let rolled = Tidtab.create false in
  List.iter (fun (s : Subthread.t) -> Tidtab.set rolled s.Subthread.tid true) losers;
  (* Loser ids, built only if a barrier wake is restored. *)
  let lost =
    lazy
      (let t = Hashtbl.create 16 in
       List.iter
         (fun (s : Subthread.t) -> Hashtbl.replace t s.Subthread.id ())
         losers;
       t)
  in
  let rolled_back tid = Tidtab.get rolled tid || Tidtab.get eng.destroyed tid in
  Array.iteri
    (fun mi (mu : Exec.State.mutex) ->
      (* A holder loses the mutex only if lost work touched it. Otherwise
         the thread took it in committed work, its restore checkpoint
         still holds it, and releasing it here would let another
         thread's re-grant claim it first. *)
      (match mu.Exec.State.holder with
      | Some h
        when rolled_back h
             && List.exists
                  (fun (s : Subthread.t) ->
                    s.Subthread.tid = h
                    && Subthread.mem_alias s (Subthread.Mutex mi))
                  losers ->
        Exec.State.set_holder st mi None
      | Some _ | None -> ());
      mu.Exec.State.mwaiters <-
        Exec.Fifo.filter (fun w -> not (rolled_back w)) mu.Exec.State.mwaiters)
    st.Exec.State.mutexes;
  Array.iter
    (fun (c : Exec.State.cond) ->
      c.Exec.State.sleepers <-
        Exec.Fifo.filter (fun w -> not (rolled_back w)) c.Exec.State.sleepers)
    st.Exec.State.conds;
  Array.iter
    (fun (b : Exec.State.barrier) ->
      b.Exec.State.arrived <-
        List.filter (fun w -> not (rolled_back w)) b.Exec.State.arrived)
    st.Exec.State.barriers;
  (* Join registrations made by a rolled-back thread are stale — it
     restarts from a checkpoint at or before the join and re-registers —
     and left in place the target's exit would wake it spuriously (even
     out of a later [Done] state). Registrations pointing AT a reset
     thread are kept: surviving joiners must still be woken when it
     re-exits, and duplicates from re-executed joins are harmless (wakes
     are idempotent). *)
  for tid = 0 to st.Exec.State.n_threads - 1 do
    let tcb = Exec.State.thread st tid in
    tcb.Vm.Tcb.joiners <-
      List.filter (fun j -> not (rolled_back j)) tcb.Vm.Tcb.joiners
  done;
  (* Precise restart: each affected thread resumes from its restart
     point's history-buffer checkpoint, in a replacement sub-thread. A
     loser Thread_create undo above may have destroyed the thread
     instead. *)
  let restarts = ref [] in
  List.iter
    (fun (o : Subthread.t) ->
      let tid = o.Subthread.tid in
      if not (Tidtab.get eng.destroyed tid) then begin
        let tcb = Exec.State.thread st tid in
        if tcb.Vm.Tcb.wait = Vm.Tcb.Done then begin
          (* The thread exited inside lost work: revive it. A crash can
             strike between the [Done] transition and the order-table
             removal (a joiner-wake append mid-[Exit]), so membership is
             checked rather than assumed. *)
          st.Exec.State.live_threads <- st.Exec.State.live_threads + 1;
          if not (Order.mem eng.order tid) then
            Order.add_thread eng.order ~tid ~group:tcb.Vm.Tcb.group
        end;
        Vm.Tcb.restore_state tcb o.Subthread.saved;
        tcb.Vm.Tcb.wait <- Vm.Tcb.Runnable;
        (* Re-grant the mutexes held at the restore point (the checkpoint
           may sit inside a critical section). A conflicting holder can
           remain when the hand-off left the lost work through an
           alias-free unlock sub-thread, or when an earlier restore
           claimed the mutex first; the reset thread then queues at the
           head and resumes when the mutex is handed back. *)
        List.iter
          (fun m ->
            let mu = st.Exec.State.mutexes.(m) in
            match mu.Exec.State.holder with
            | None -> Exec.State.set_holder st m (Some tid)
            | Some h when h = tid -> ()
            | Some _ ->
              Sim.Stats.incr st.Exec.State.stats "gprs.regrant_waits";
              mu.Exec.State.mwaiters <-
                Exec.Fifo.push_front mu.Exec.State.mwaiters tid;
              tcb.Vm.Tcb.wait <- Vm.Tcb.On_mutex m)
          o.Subthread.held_locks;
        (* A wake-sub checkpoint taken while queued for the mutex re-joins
           the queue (or takes the mutex if free). *)
        (match o.Subthread.pending_mutex with
        | None -> ()
        | Some m -> (
          let mu = st.Exec.State.mutexes.(m) in
          match mu.Exec.State.holder with
          | None -> Exec.State.set_holder st m (Some tid)
          | Some h when h = tid -> ()
          | Some _ ->
            mu.Exec.State.mwaiters <- Exec.Fifo.push mu.Exec.State.mwaiters tid;
            tcb.Vm.Tcb.wait <- Vm.Tcb.On_mutex m));
        (* A checkpoint taken at a barrier release whose releasing arrival
           is lost too is not released: the thread goes back on the
           barrier until the re-executed arrival wakes it again. *)
        let b = o.Subthread.wake_barrier in
        let rearrive =
          b >= 0 && Hashtbl.mem (Lazy.force lost) o.Subthread.releaser
        in
        if rearrive then begin
          let br = st.Exec.State.barriers.(b) in
          br.Exec.State.arrived <- tid :: br.Exec.State.arrived;
          tcb.Vm.Tcb.wait <- Vm.Tcb.On_barrier b
        end;
        ignore (Sched.Scheduler.remove eng.sched tid);
        Tidtab.set eng.queued tid false;
        Tidtab.set eng.pending_delay tid 0;
        (* The replacement re-issues the restart point under a current
           id, so the restored thread is in the ROL from now on: a later
           squash of the edge it resumed from (the same aliases) reaches
           it, whether or not its pc is at a sync point. A thread sent
           back to the barrier is its own releaser: losing the
           replacement sends it back again. *)
        let r = new_sub eng tcb in
        Subthread.copy_aliases ~src:o r;
        r.Subthread.held_locks <- o.Subthread.held_locks;
        r.Subthread.pending_mutex <- o.Subthread.pending_mutex;
        r.Subthread.wake_barrier <- b;
        r.Subthread.releaser <-
          (if rearrive then r.Subthread.id else o.Subthread.releaser);
        add_delay eng tid
          (boundary_cost eng - eng.cfg.costs.Vm.Costs.token_pass);
        Sim.Stats.bump eng.ctrs.restart_subs;
        (* A thread reset into a mutex queue or onto a barrier passes its
           turns until the hand-off or release, like any blocked
           thread. *)
        Order.set_eligible eng.order tid (tcb.Vm.Tcb.wait = Vm.Tcb.Runnable);
        restarts := tid :: !restarts
      end)
    restores;
  (* Stranded waiters: a rollback can release a mutex whose queue still
     holds threads it did not reset (reset by an earlier recovery, or
     never rolled back) — hand it to the head. *)
  Array.iteri
    (fun mi (mu : Exec.State.mutex) ->
      match (mu.Exec.State.holder, Exec.Fifo.pop mu.Exec.State.mwaiters) with
      | None, Some (w, rest) ->
        Exec.State.set_holder st mi (Some w);
        mu.Exec.State.mwaiters <- rest;
        (Exec.State.thread st w).Vm.Tcb.wait <- Vm.Tcb.Runnable;
        Order.set_eligible eng.order w true;
        if not (List.mem w !restarts) then make_runnable eng ~ctx_hint:w w
      | (Some _ | None), _ -> ())
    st.Exec.State.mutexes;
  (!words, List.length ops, !restarts)

(* The modeled repair pause, charged per restored word and per undone
   WAL record: the machine stays in recovery until [Recovery_done]
   re-queues [restarts]. *)
let pause_for_repair eng ~from ~words ~undone restarts =
  let costs = eng.cfg.costs in
  let duration =
    costs.Vm.Costs.pause_resume
    + (costs.Vm.Costs.restore_per_word * words)
    + (costs.Vm.Costs.wal_undo * undone)
  in
  eng.recovering <- true;
  eng.restart_pending <- List.sort compare restarts;
  ignore
    (Sim.Event_queue.schedule eng.st.Exec.State.evq
       ~time:(from + Stdlib.max 1 duration)
       Recovery_done)

let recover eng (victim : Subthread.t) =
  let st = eng.st in
  (* Raised before any structure is touched: a crash point firing off a
     WAL append made from inside this function (the stranded-waiter
     sweep enqueues) must not capture a half-undone machine, so the
     armed-crash hook declines to fire while [recovering] is set. *)
  eng.recovering <- true;
  Sim.Stats.incr st.Exec.State.stats "gprs.recoveries";
  let squash = compute_squash_set eng victim in
  let n_squash = List.length squash in
  Sim.Stats.add st.Exec.State.stats "gprs.squashed_subs" n_squash;
  eng.squashed_since_retire <- eng.squashed_since_retire + n_squash;
  (* Basic recovery stalls the whole machine: remember interrupted
     contexts so their in-flight instructions complete after the pause. *)
  if eng.cfg.recovery = Basic then begin
    eng.interrupted <- [];
    Array.iteri
      (fun ctx o ->
        match o with
        | Some tid
          when not
                 (List.exists (fun (s : Subthread.t) -> s.Subthread.tid = tid) squash)
          -> (
          match eng.tick_handle.(ctx) with
          | Some h ->
            Sim.Event_queue.cancel st.Exec.State.evq h;
            eng.tick_handle.(ctx) <- None;
            eng.interrupted <- (ctx, eng.busy_until.(ctx)) :: eng.interrupted
          | None -> ())
        | Some _ | None -> ())
      eng.ctx_of
  end;
  (* Take the squashed sub-threads off their contexts and out of the ROL,
     and their records out of the live WAL ([squash] is ascending by id:
     the victim, then younger entries oldest first). *)
  List.iter
    (fun (s : Subthread.t) ->
      cancel_ctx_of_thread eng s.Subthread.tid;
      Rol.remove eng.rol s.Subthread.id)
    squash;
  let ops =
    Wal.squash eng.wal (List.map (fun (s : Subthread.t) -> s.Subthread.id) squash)
  in
  (* Threads reset in restart-table order (ascending sub-thread order
     would move results; see DESIGN.md). *)
  let words, wal_undone, restarts =
    rollback eng ~losers:squash ~ops ~restores:(restart_points squash)
  in
  Sim.Stats.add st.Exec.State.stats "gprs.restored_words" words;
  Sim.Stats.add st.Exec.State.stats "gprs.wal_undone" wal_undone;
  (* Every squashed record is now unreachable (out of the ROL, current-sub
     table entries cleared, checkpoints consumed): recycle them. *)
  List.iter (fun s -> release_sub eng s) squash;
  pause_for_repair eng ~from:(now eng) ~words ~undone:wal_undone restarts

let recovery_done eng =
  eng.recovering <- false;
  List.iter
    (fun tid ->
      if (Exec.State.thread eng.st tid).Vm.Tcb.wait = Vm.Tcb.Runnable then
        make_runnable eng ~ctx_hint:tid tid)
    eng.restart_pending;
  eng.restart_pending <- [];
  (* Resume contexts stalled by basic recovery. *)
  List.iter
    (fun (ctx, busy_until) ->
      let t = Stdlib.max busy_until (now eng + 1) in
      eng.busy_until.(ctx) <- t;
      eng.tick_handle.(ctx) <-
        Some
          (Sim.Event_queue.schedule eng.st.Exec.State.evq ~prio:(1 + ctx)
             ~time:t (Tick ctx)))
    eng.interrupted;
  eng.interrupted <- [];
  try_grant eng

let handle_report eng victim =
  let st = eng.st in
  Sim.Stats.incr st.Exec.State.stats "gprs.exceptions";
  if eng.recovering then eng.pending_reports <- eng.pending_reports @ [ victim ]
  else
    match victim with
    | V_runtime ->
      (* The exception corrupted GPRS's own structures: repair them by
         walking the WAL; no user work is lost (§3.4). *)
      Sim.Stats.incr st.Exec.State.stats "gprs.runtime_exceptions";
      pause_for_repair eng ~from:(now eng) ~words:0
        ~undone:(Wal.size eng.wal) []
    | V_sub id -> (
      match Rol.find eng.rol id with
      | None ->
        (* Already squashed or the thread was destroyed: nothing live was
           corrupted. *)
        Sim.Stats.incr st.Exec.State.stats "gprs.exn_on_dead_sub"
      | Some sub -> recover eng sub)

(* ------------------------------------------------------------------ *)
(* Fault plumbing and the main loop                                    *)
(* ------------------------------------------------------------------ *)

let schedule_next_fault eng =
  let inj, ev = Faults.Injector.next eng.injector in
  eng.injector <- inj;
  match ev with
  | None -> ()
  | Some ev ->
    let time = Stdlib.max ev.Faults.Injector.occurred_at (now eng) in
    add_fault_time eng time;
    ignore
      (Sim.Event_queue.schedule eng.st.Exec.State.evq ~time
         (Fault_occur { ctx = ev.Faults.Injector.ctx; kind = ev.Faults.Injector.kind }))

let fault_occur eng ctx kind =
  let victim =
    match eng.ctx_of.(ctx) with
    | Some tid -> V_sub (cur_sub eng tid).Subthread.id
    | None -> V_runtime
  in
  add_fault_time eng (now eng + eng.cfg.costs.Vm.Costs.detection_latency);
  ignore
    (Sim.Event_queue.schedule eng.st.Exec.State.evq
       ~time:(now eng + eng.cfg.costs.Vm.Costs.detection_latency)
       (Fault_report { victim; ctx; kind }));
  schedule_next_fault eng

(* Permanent revocation (§3.5 extension): retire the context. A thread
   running on it migrates — its in-flight instruction's effects were
   applied at dispatch, so requeueing resumes it at the next one. *)
let revoke_context eng ctx =
  if not eng.dead_ctx.(ctx) then begin
    eng.dead_ctx.(ctx) <- true;
    eng.n_dead <- eng.n_dead + 1;
    Sim.Stats.incr eng.st.Exec.State.stats "gprs.contexts_revoked";
    (match eng.tick_handle.(ctx) with
    | Some h -> Sim.Event_queue.cancel eng.st.Exec.State.evq h
    | None -> ());
    eng.tick_handle.(ctx) <- None;
    match eng.ctx_of.(ctx) with
    | Some tid ->
      eng.ctx_of.(ctx) <- None;
      let tcb = Exec.State.thread eng.st tid in
      if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then make_runnable eng ~ctx_hint:tid tid
    | None -> ()
  end

let all_contexts_dead eng = eng.n_dead = Array.length eng.dead_ctx

let finished eng = Exec.State.all_exited eng.st && Rol.is_empty eng.rol

let finalize eng ~dnc =
  let st = eng.st in
  Sim.Stats.set_max st.Exec.State.stats "gprs.rol_depth" (Rol.max_size eng.rol);
  Sim.Stats.set_max st.Exec.State.stats "wal.high_water" (Wal.high_water eng.wal);
  (* Pool effectiveness counters are host-side observations, recorded only
     under --profile so run stats stay identical between production and
     reference runs. *)
  if !Vm.Block.profiling then begin
    let hits, misses, live_hw = Subthread.pool_stats eng.pool in
    Sim.Stats.add st.Exec.State.stats "pool.sub.hits" hits;
    Sim.Stats.add st.Exec.State.stats "pool.sub.misses" misses;
    Sim.Stats.set_max st.Exec.State.stats "pool.sub.live_hw" live_hw;
    let cells_alloc, cells_recycled =
      Sim.Event_queue.cell_stats st.Exec.State.evq
    in
    Sim.Stats.add st.Exec.State.stats "pool.evq.cells_alloc" cells_alloc;
    Sim.Stats.add st.Exec.State.stats "pool.evq.cells_recycled" cells_recycled
  end;
  if dnc && debug () then begin
    Format.eprintf "=== GPRS wedge dump (t=%d) ===@." (now eng);
    Format.eprintf "holder=%s recovering=%b sched_len=%d@."
      (match Order.holder eng.order with
      | Some t -> string_of_int t
      | None -> "none")
      eng.recovering
      (Sched.Scheduler.length eng.sched);
    for tid = 0 to st.Exec.State.n_threads - 1 do
      let tcb = Exec.State.thread st tid in
      Format.eprintf "tid=%d wait=%a eligible=%b on_ctx=%b queued=%b sub=%s@." tid
        Vm.Tcb.pp_wait tcb.Vm.Tcb.wait
        (Order.is_eligible eng.order tid)
        (Exec.Baseline.on_ctx eng.ctx_of tid) (Tidtab.get eng.queued tid)
        (match cur_sub_opt eng tid with
        | Some s -> Format.asprintf "%a" Subthread.pp s
        | None -> "-")
    done;
    let pp_tids =
      Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int
    in
    Array.iteri
      (fun b (br : Exec.State.barrier) ->
        Format.eprintf "barrier %d: parties=%d arrived=[%a]@." b
          br.Exec.State.parties pp_tids br.Exec.State.arrived)
      st.Exec.State.barriers;
    Array.iteri
      (fun m (mu : Exec.State.mutex) ->
        let queue = Exec.Fifo.to_list mu.Exec.State.mwaiters in
        match (mu.Exec.State.holder, queue) with
        | None, [] -> ()
        | holder, queue ->
          Format.eprintf "mutex %d: holder=%s queue=[%a]@." m
            (match holder with Some t -> string_of_int t | None -> "none")
            pp_tids queue)
      st.Exec.State.mutexes;
    Format.eprintf "rol: %a@."
      (Format.pp_print_list ~pp_sep:Format.pp_print_space Subthread.pp)
      (Rol.to_list eng.rol);
    List.iter
      (fun (t, ev) -> Format.eprintf "  [%d] %a@." t Event_ring.pp_event ev)
      (Event_ring.to_list eng.ring)
  end;
  Exec.State.mk_result st ~dnc

let mk_eng cfg st ~order ~injector ~destroyed ~journals ~dead_ctx ~next_sub_id
    ~stable ~ring =
  {
    cfg;
    st;
    sched = Sched.Scheduler.create ~n_contexts:cfg.n_contexts;
    ctx_of = Array.make cfg.n_contexts None;
    tick_handle = Array.make cfg.n_contexts None;
    busy_until = Array.make cfg.n_contexts 0;
    dead_ctx;
    n_dead = Array.fold_left (fun n d -> if d then n + 1 else n) 0 dead_ctx;
    order;
    rol = Rol.create ();
    wal = Wal.create ~stable ();
    next_sub_id;
    released_by = Array.make (Array.length st.Exec.State.mutexes) (next_sub_id - 1);
    pool = Subthread.pool_create ~reuse:(not cfg.reference) ();
    cur_sub = Tidtab.create None;
    journals;
    spare_journals = [];
    undo_owner = -1;
    pending_delay = Tidtab.create 0;
    queued = Tidtab.create false;
    destroyed;
    recovering = false;
    restart_pending = [];
    interrupted = [];
    pending_reports = [];
    squashed_since_retire = 0;
    injector;
    grant_guard = 0;
    fault_times = [];
    budget = Option.value ~default:max_int cfg.max_cycles;
    instrs = Sim.Stats.counter st.Exec.State.stats "instrs";
    ctrs = counters st.Exec.State.stats;
    ring;
    io_tid = 0;
  }

(* §3.2's coverage of the IO metadata: file growth happens inside a
   [Work] body, so it is logged from the state's hook, on behalf of the
   dispatched thread's current sub-thread. Like the queue-insert record
   ([make_runnable]) it charges no extra cycles: the boundary cost
   already budgets two WAL appends per sub-thread and [io_per_word]
   subsumes the IO append. *)
let install_hooks eng =
  eng.st.Exec.State.on_io_grow <-
    Some
      (fun file words ->
        let id = (cur_sub eng eng.io_tid).Subthread.id in
        append eng ~order:id (Wal.Io_op { file; words }))

let boot_checkpoint eng =
  if Wal.stable_armed eng.wal then begin
    let brk, free, used = Vm.Mem.alloc_parts eng.st.Exec.State.mem in
    Wal.log_checkpoint eng.wal ~min_retired:0 ~active:[] ~brk ~free ~used
  end

let run_loop eng =
  let st = eng.st and cfg = eng.cfg in
  let rec loop () =
    if eng.squashed_since_retire > livelock_squashes then finalize eng ~dnc:true
    else if finished eng then finalize eng ~dnc:false
    else if all_contexts_dead eng then finalize eng ~dnc:true
    else
      match Sim.Event_queue.pop st.Exec.State.evq with
      | None ->
        if finished eng then finalize eng ~dnc:false
        else
          raise
            (Exec.State.Deadlock
               (Printf.sprintf
                  "gprs: %d live threads, rol=%d, no pending events"
                  st.Exec.State.live_threads (Rol.size eng.rol)))
      | Some (time, ev) -> (
        match cfg.max_cycles with
        | Some budget when time > budget -> finalize eng ~dnc:true
        | Some _ | None ->
          (match ev with
          | Tick ctx -> (
            eng.tick_handle.(ctx) <- None;
            match eng.ctx_of.(ctx) with
            | None -> fill eng ctx
            | Some tid -> (
              let tcb = Exec.State.thread st tid in
              match tcb.Vm.Tcb.wait with
              | Vm.Tcb.Runnable -> dispatch eng ctx tcb
              | Vm.Tcb.On_mutex _ | Vm.Tcb.On_cond _ | Vm.Tcb.Reacquire _
              | Vm.Tcb.On_barrier _ | Vm.Tcb.On_join _ | Vm.Tcb.On_token
              | Vm.Tcb.Done ->
                eng.ctx_of.(ctx) <- None;
                fill eng ctx))
          | Retire_check -> retire eng
          | Fault_occur { ctx; kind } ->
            remove_fault_time eng time;
            fault_occur eng ctx kind
          | Fault_report { victim; ctx; kind } ->
            remove_fault_time eng time;
            if
              eng.cfg.revoke_contexts
              && kind = Faults.Injector.Resource_revocation
            then revoke_context eng ctx;
            handle_report eng victim
          | Recovery_done ->
            recovery_done eng;
            retire eng;
            (match eng.pending_reports with
            | [] -> ()
            | v :: rest ->
              eng.pending_reports <- rest;
              handle_report eng v));
          try_grant eng;
          loop ())
  in
  loop ()

(* Rebuild a running engine from the durable remains of a crashed one.
   The caller (lib/recovery) has already done ARIES analysis over the
   serialized WAL: [redo] reconstructs the allocator (checkpoint image +
   conditional LSN-order replay; returns ops applied), [loser_ops] are
   the log records of the in-flight sub-threads in reverse LSN order,
   [replayed] is the redo-scan length (for the modeled repair duration),
   and [next_sub] continues the order-id sequence past every id the log
   ever granted. Redo runs before undo, as in ARIES: undo's inverse
   operations ([undo_alloc]) assume the exact crash-time allocator,
   which only exists after the retired prefix has been re-applied.
   Returns the resume continuation; everything up to scheduling the
   [Recovery_done] event has happened when it is handed back, so the
   caller can time recovery separately from re-execution. *)
let cold_restart (d : crash_dump) ~redo ~loser_ops ~replayed ~next_sub =
  Faults.Points.strike Faults.Points.Cold_restart;
  let st = d.d_st in
  let cfg = { d.d_cfg with crash_lsn = None } in
  Sim.Event_queue.clear st.Exec.State.evq;
  st.Exec.State.current_undo <- None;
  st.Exec.State.on_io_grow <- None;
  let eng =
    mk_eng cfg st ~order:d.d_order ~injector:d.d_injector
      ~destroyed:d.d_destroyed ~journals:d.d_journals ~dead_ctx:d.d_dead_ctx
      ~next_sub_id:next_sub
      ~stable:cfg.wal_stable ~ring:d.d_ring
  in
  install_hooks eng;
  let stats = st.Exec.State.stats in
  (* Redo: rebuild the allocator lists from the last checkpoint plus the
     retired-prefix records. *)
  let redone = redo st.Exec.State.mem in
  Faults.Points.strike Faults.Points.Recovery_undo;
  (* Undo: the losers are the in-flight sub-threads. Threads with none
     lost nothing — their last sub-thread retired, so their TCB state is
     committed; they stay exactly as they were (parked on their sync
     object, or awaiting the ordering token). Restores run in ascending
     checkpoint order: when two checkpoints both record a held mutex (an
     older checkpoint predating a handover), the chronologically earlier
     hold wins and the later claimant queues until the re-executed
     unlock hands it over. *)
  let restores =
    restart_points d.d_subs
    |> List.sort (fun (a : Subthread.t) b -> compare a.Subthread.id b.Subthread.id)
  in
  let words, undone, restarts =
    rollback eng ~losers:d.d_subs ~ops:loser_ops ~restores
  in
  Sim.Stats.incr stats "recovery.cold_restarts";
  Sim.Stats.add stats "recovery.replayed_lsns" replayed;
  Sim.Stats.add stats "recovery.redone_ops" redone;
  Sim.Stats.add stats "recovery.squashed_subs" (List.length d.d_subs);
  Sim.Stats.add stats "recovery.restored_words" words;
  Sim.Stats.add stats "recovery.wal_undone" undone;
  pause_for_repair eng ~from:d.d_cycle ~words ~undone:(replayed + undone)
    restarts;
  boot_checkpoint eng;
  schedule_next_fault eng;
  fun () -> run_loop eng

let run ?lint:(`Off = `Off) ?wal_out ?blocks ?events cfg program =
  let st =
    Exec.State.create ?blocks ~reference:cfg.reference ~program ~costs:cfg.costs
      ~n_contexts:cfg.n_contexts ~seed:cfg.seed ()
  in
  let stable = cfg.wal_stable || cfg.crash_lsn <> None in
  let eng =
    mk_eng cfg st
      ~order:(Order.create cfg.ordering ~group_weights:program.Vm.Isa.group_weights)
      ~injector:
        (Faults.Injector.create cfg.injector ~n_contexts:cfg.n_contexts
           ~cycles_per_second:cfg.costs.Vm.Costs.cycles_per_second)
      ~destroyed:(Tidtab.create false) ~journals:(Tidtab.create None)
      ~dead_ctx:(Array.make cfg.n_contexts false)
      ~next_sub_id:0 ~stable
      ~ring:(match events with Some r -> r | None -> default_ring ())
  in
  install_hooks eng;
  boot_checkpoint eng;
  try
    let main = Exec.State.thread st Exec.State.main_tid in
    Order.add_thread eng.order ~tid:Exec.State.main_tid ~group:main.Vm.Tcb.group;
    ignore (new_sub eng main);
    make_runnable eng ~ctx_hint:0 Exec.State.main_tid;
    (* Fault horizon armed before the first dispatch so fused chains never
       cross the first occurrence. *)
    schedule_next_fault eng;
    fill_all eng;
    let res = run_loop eng in
    (match wal_out with
    | Some r ->
      r := Option.value ~default:"" (Wal.stable_image eng.wal)
    | None -> ());
    res
  with Crash_signal -> raise (Crashed (capture eng))
