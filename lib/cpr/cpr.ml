type config = {
  n_contexts : int;
  seed : int;
  max_cycles : int option;
  checkpoint_interval : float;
  injector : Faults.Injector.config;
  livelock_rollbacks : int;
  costs : Vm.Costs.t;
  crash_at : int option;
      (** whole-runtime crash at this simulated cycle: all work since the
          last committed global checkpoint is lost and the machine
          restarts from it — the comparison leg the crash sweep runs
          against GPRS's WAL-driven cold recovery *)
  reference : bool;  (* single-step reference run; tests only *)
}

let default_config =
  {
    n_contexts = 24;
    seed = 1;
    max_cycles = None;
    checkpoint_interval = 1.0;
    injector = Faults.Injector.default_config;
    livelock_rollbacks = 200;
    costs = Vm.Costs.default;
    crash_at = None;
    reference = false;
  }

type event =
  | Tick of int
  | Ckpt_alarm
  | Ckpt_done
  | Fault_report of { occurred_at : int; ctx : int }
  | Restore_done
  | Crash_point  (* [crash_at] fired: roll back to the last checkpoint *)

(* A committed coordinated checkpoint: the restartable image of every
   thread plus synchronization-object and allocator state. Data words
   live in a page-granular dirty-tracked [Vm.Mem.image]: taking a
   checkpoint copies only pages written since the image was last synced,
   and restoring copies back only pages written since it was taken. *)
type snapshot = {
  taken_at : int;
  image : Vm.Mem.image;
  n_threads : int;
  live_threads : int;
  live : int array;
      (** tids of the threads not [Done] at the snapshot, ascending. A
          [Done] thread's TCB, wait, joiners and work
          cannot change while this snapshot is retained (only a restore
          to an older snapshot revives it, and that drops this one), so
          the per-thread arrays below hold the [live] threads only, in
          [live] order. *)
  tcbs : Vm.Tcb.saved array;
  waits : Vm.Tcb.wait array;
  joiners : int list array;
  work_done : int array;  (** per-thread executed cycles, for progress gating *)
  (* Waiter queues are immutable, so snapshotting them is by reference. *)
  mutex_state : (int option * Exec.Fifo.t) array;
  cond_state : Exec.Fifo.t array;
  barrier_state : int list array;
  alloc : int * (Vm.Mem.addr * int) list * (Vm.Mem.addr * int) list;
      (** [Vm.Mem.alloc_parts]: static break, free list, live blocks *)
}

type mode = Normal | Quiescing | Recording | Restoring

(* What the shared core's hooks read: the inputs of the extra fused-chain
   bound, and per-thread executed cycles for progress gating. A chain
   must not reach the armed checkpoint alarm or the outstanding fault
   report (max_int when none): at that instant the alarm/report event
   outranks the tick, so the unfused engine quiesces or restores before
   dispatching. *)
type hooks = {
  mutable alarm_time : int;
  mutable next_report_time : int;
  work_done : int Exec.Tidtab.t;
}

type eng = {
  cfg : config;
  st : event Exec.State.t;
  core : event Exec.Baseline.core;  (* the Pthreads dispatch machinery *)
  hk : hooks;
  mutable mode : mode;
  (* Checkpoints, newest first; at most two retained. [cur_log] covers
     writes since the newest; [prev_log] covers the interval between the
     two. *)
  mutable snaps : snapshot list;
  (* Data images of dropped snapshots, recycled so steady-state
     checkpointing allocates nothing. *)
  mutable image_pool : Vm.Mem.image list;
  mutable cur_log : Exec.Undo_log.t;
  mutable prev_log : Exec.Undo_log.t;
  mutable alarm : Sim.Event_queue.handle option;
  mutable ckpt_done_handle : Sim.Event_queue.handle option;
  mutable quiesce_started : int;
  mutable injector : Faults.Injector.t;
  mutable pending_reports : (int * int) list;  (* (occurred_at, ctx), oldest first *)
  mutable consecutive_rollbacks : int;
}

let note_work hk tid d =
  Exec.Tidtab.set hk.work_done tid (Exec.Tidtab.get hk.work_done tid + d)

let now eng = Exec.State.now eng.st

let grab_image eng =
  match eng.image_pool with
  | img :: rest ->
    eng.image_pool <- rest;
    img
  | [] -> Vm.Mem.alloc_image eng.st.Exec.State.mem

let take_snapshot eng =
  let st = eng.st in
  let n = st.Exec.State.n_threads in
  let image = grab_image eng in
  let copied = Vm.Mem.capture st.Exec.State.mem image in
  Sim.Stats.add st.Exec.State.stats "cpr.snap_words_copied" copied;
  let live =
    let tids = Array.make n 0 and k = ref 0 in
    for tid = 0 to n - 1 do
      if st.Exec.State.threads.(tid).Vm.Tcb.wait <> Vm.Tcb.Done then begin
        tids.(!k) <- tid;
        incr k
      end
    done;
    Array.sub tids 0 !k
  in
  let thread k = st.Exec.State.threads.(live.(k)) in
  let per_live f = Array.init (Array.length live) (fun k -> f (thread k)) in
  {
    taken_at = now eng;
    image;
    n_threads = n;
    live_threads = st.Exec.State.live_threads;
    live;
    tcbs = per_live Vm.Tcb.copy_state;
    waits = per_live (fun t -> t.Vm.Tcb.wait);
    joiners = per_live (fun t -> t.Vm.Tcb.joiners);
    mutex_state =
      Array.map
        (fun (m : Exec.State.mutex) -> (m.Exec.State.holder, m.Exec.State.mwaiters))
        st.Exec.State.mutexes;
    cond_state =
      Array.map (fun (c : Exec.State.cond) -> c.Exec.State.sleepers) st.Exec.State.conds;
    barrier_state =
      Array.map (fun (b : Exec.State.barrier) -> b.Exec.State.arrived) st.Exec.State.barriers;
    alloc = Vm.Mem.alloc_parts st.Exec.State.mem;
    work_done = Array.map (Exec.Tidtab.get eng.hk.work_done) live;
  }

let restore_snapshot eng snap =
  let st = eng.st in
  (* Threads created since the snapshot are gone: their work restarts
     from 0 when their tids are spawned again. *)
  for tid = snap.n_threads to st.Exec.State.n_threads - 1 do
    Exec.Tidtab.set eng.hk.work_done tid 0
  done;
  st.Exec.State.n_threads <- snap.n_threads;
  st.Exec.State.live_threads <- snap.live_threads;
  Array.iteri
    (fun k tid ->
      let tcb = st.Exec.State.threads.(tid) in
      Vm.Tcb.restore_state tcb snap.tcbs.(k);
      tcb.Vm.Tcb.wait <- snap.waits.(k);
      tcb.Vm.Tcb.joiners <- snap.joiners.(k);
      Exec.Tidtab.set eng.hk.work_done tid snap.work_done.(k))
    snap.live;
  (* The holder map is restored wholesale, so rebuild the TCBs'
     incremental held-mutex sets rather than replaying transitions. *)
  for i = 0 to snap.n_threads - 1 do
    st.Exec.State.threads.(i).Vm.Tcb.held_mutexes <- []
  done;
  Array.iteri
    (fun i (holder, waiters) ->
      let m = st.Exec.State.mutexes.(i) in
      m.Exec.State.holder <- holder;
      m.Exec.State.mwaiters <- waiters;
      match holder with
      | Some h -> Vm.Tcb.hold st.Exec.State.threads.(h) i
      | None -> ())
    snap.mutex_state;
  Array.iteri
    (fun i sleepers -> st.Exec.State.conds.(i).Exec.State.sleepers <- sleepers)
    snap.cond_state;
  Array.iteri
    (fun i arrived -> st.Exec.State.barriers.(i).Exec.State.arrived <- arrived)
    snap.barrier_state;
  let copied = Vm.Mem.restore_image st.Exec.State.mem snap.image in
  Sim.Stats.add st.Exec.State.stats "cpr.snap_words_uncopied" copied;
  let brk, free, used = snap.alloc in
  Vm.Mem.restore_alloc_parts st.Exec.State.mem ~brk ~free ~used

let all_ctx_idle eng = Array.for_all Option.is_none (Exec.Baseline.ctx_of eng.core)

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

let tcb_words = Vm.Isa.n_registers + 2

let begin_recording eng =
  let st = eng.st in
  let costs = st.Exec.State.costs in
  eng.mode <- Recording;
  let dirty = Exec.Undo_log.size eng.cur_log in
  let words = dirty + (st.Exec.State.live_threads * tcb_words) in
  Sim.Stats.add st.Exec.State.stats "cpr.ckpt_words" words;
  Sim.Stats.observe st.Exec.State.stats "cpr.quiesce_cycles"
    (float_of_int (now eng - eng.quiesce_started));
  let record_time =
    (2 * costs.Vm.Costs.barrier_coord)
    + costs.Vm.Costs.record_per_word * words / Stdlib.max 1 eng.cfg.n_contexts
  in
  let h =
    Sim.Event_queue.schedule st.Exec.State.evq
      ~time:(now eng + Stdlib.max 1 record_time)
      Ckpt_done
  in
  eng.ckpt_done_handle <- Some h

(* Progress gate: the commit is anchored to program progress, like the
   paper's sync-point barriers. Every thread that existed at the last
   committed checkpoint and is still computing must have advanced by half
   an interval of its own work; threads parked at synchronization
   operations sit at a "checkpoint location" and qualify. Without the
   gate, time-triggered commits of arbitrary quiesced states would let
   CPR crawl through exception storms the paper's scheme cannot
   survive. *)
let progressed_enough eng =
  match eng.snaps with
  | [] -> true
  | last :: _ ->
    let interval_cycles =
      Sim.Time.of_seconds
        ~cycles_per_second:eng.cfg.costs.Vm.Costs.cycles_per_second
        eng.cfg.checkpoint_interval
    in
    let threshold = interval_cycles / 2 in
    threshold <= 0
    ||
    (* Commit when no computing thread is mid-replay: each either made a
       full stride of progress (>= threshold) or has not moved at all
       since the last checkpoint (it still sits at its recorded location,
       so re-recording it is sound). At least one thread must have made a
       real stride — otherwise the commit would bank nothing yet reset
       the livelock detector. *)
    let all_ok = ref true and any_stride = ref false in
    (* Threads [Done] at the last checkpoint have not moved since. *)
    for k = 0 to Array.length last.live - 1 do
      let tid = last.live.(k) in
      let tcb = Exec.State.thread eng.st tid in
      let before = last.work_done.(k) in
      let now_w = Exec.Tidtab.get eng.hk.work_done tid in
      let delta = now_w - before in
      if delta >= threshold then any_stride := true;
      match tcb.Vm.Tcb.wait with
      | Vm.Tcb.Runnable -> if delta > 0 && delta < threshold then all_ok := false
      | Vm.Tcb.On_mutex _ | Vm.Tcb.On_cond _ | Vm.Tcb.Reacquire _
      | Vm.Tcb.On_barrier _ | Vm.Tcb.On_join _ | Vm.Tcb.On_token | Vm.Tcb.Done ->
        if delta > 0 then any_stride := true
    done;
    (* Threads created after the last checkpoint count as progress. *)
    if eng.st.Exec.State.n_threads > last.n_threads then any_stride := true;
    !all_ok && !any_stride

let commit_checkpoint eng =
  let st = eng.st in
  eng.ckpt_done_handle <- None;
  if not (progressed_enough eng) then begin
    Sim.Stats.incr st.Exec.State.stats "cpr.ckpt_skipped";
    eng.mode <- Normal;
    Exec.Baseline.fill_all eng.core
  end
  else begin
  let snap = take_snapshot eng in
  (* Retain the two newest checkpoints: the grand-previous epoch's undo
     records are folded away (discarded) by merging into nothing — we
     simply drop them, since rollback never reaches past two checkpoints
     (the detection latency is far below the checkpoint interval). *)
  (match eng.snaps with
  | [] -> eng.snaps <- [ snap ]
  | s1 :: dropped ->
    List.iter (fun s -> eng.image_pool <- s.image :: eng.image_pool) dropped;
    eng.snaps <- [ snap; s1 ];
    let dropped_log = eng.prev_log in
    eng.prev_log <- eng.cur_log;
    eng.cur_log <- dropped_log);
  (* The capture advanced the memory's dirty epoch: the interval log
     starts afresh, reusing the dropped log's capacity. *)
  Exec.Undo_log.reset eng.cur_log;
  st.Exec.State.current_undo <- Some eng.cur_log;
  (* A rollback only resets the livelock counter when the program has
     banked genuinely new progress, which a gated commit certifies. *)
  eng.consecutive_rollbacks <- 0;
  Sim.Stats.incr st.Exec.State.stats "cpr.checkpoints";
  eng.mode <- Normal;
  Sim.Stats.observe st.Exec.State.stats "cpr.ckpt_cycles"
    (float_of_int (now eng - eng.quiesce_started));
  Exec.Baseline.fill_all eng.core
  end

let schedule_alarm eng =
  let st = eng.st in
  let interval =
    Sim.Time.of_seconds
      ~cycles_per_second:st.Exec.State.costs.Vm.Costs.cycles_per_second
      eng.cfg.checkpoint_interval
  in
  let h =
    Sim.Event_queue.schedule st.Exec.State.evq ~time:(now eng + interval) Ckpt_alarm
  in
  eng.alarm <- Some h;
  eng.hk.alarm_time <- now eng + interval

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

(* Halt every context. Handles of fired ticks are stale: cancelling
   them is a no-op. *)
let cancel_all_ticks eng =
  let c = eng.core in
  Array.iter (Sim.Event_queue.cancel eng.st.Exec.State.evq) (Exec.Baseline.tick_handles c);
  let ctx_of = Exec.Baseline.ctx_of c in
  Array.fill ctx_of 0 (Array.length ctx_of) None

let begin_restore eng ~occurred_at =
  let st = eng.st in
  let costs = st.Exec.State.costs in
  eng.mode <- Restoring;
  (* Abort any in-flight checkpoint. *)
  (match eng.ckpt_done_handle with
  | Some h ->
    Sim.Event_queue.cancel st.Exec.State.evq h;
    eng.ckpt_done_handle <- None;
    Sim.Stats.incr st.Exec.State.stats "cpr.ckpt_aborted"
  | None -> ());
  (match eng.alarm with
  | Some h ->
    Sim.Event_queue.cancel st.Exec.State.evq h;
    eng.alarm <- None
  | None -> ());
  eng.hk.alarm_time <- max_int;
  cancel_all_ticks eng;
  (* Choose the newest checkpoint not contaminated by the exception: it
     must have been taken before the exception occurred. *)
  let target, undo_prev_too =
    match eng.snaps with
    | [] -> (None, false)
    | [ s1 ] -> (Some s1, false)
    | s2 :: s1 :: _ ->
      if s2.taken_at <= occurred_at then (Some s2, false) else (Some s1, true)
  in
  let mem = st.Exec.State.mem
  and atomics = st.Exec.State.atomics
  and io = st.Exec.State.io in
  let words = Exec.Undo_log.replay ~mem ~atomics ~io eng.cur_log in
  let words =
    if undo_prev_too then
      words + Exec.Undo_log.replay ~mem ~atomics ~io eng.prev_log
    else words
  in
  (match target with
  | Some snap ->
    restore_snapshot eng snap;
    Sim.Stats.add st.Exec.State.stats "cpr.lost_cycles" (now eng - snap.taken_at);
    if undo_prev_too then begin
      (match eng.snaps with
      | s2 :: _ when s2 != snap -> eng.image_pool <- s2.image :: eng.image_pool
      | _ -> ());
      eng.snaps <- [ snap ]
    end
  | None -> failwith "Cpr: no checkpoint to restore (missing initial snapshot)");
  (* Squashed threads may reappear with the same tids on re-execution;
     the run queue is rebuilt from the restored thread states. *)
  Exec.Baseline.reset_queue eng.core;
  eng.consecutive_rollbacks <- eng.consecutive_rollbacks + 1;
  Sim.Stats.incr st.Exec.State.stats "cpr.rollbacks";
  Sim.Stats.add st.Exec.State.stats "cpr.restored_words" words;
  let restore_time =
    costs.Vm.Costs.pause_resume
    + costs.Vm.Costs.restore_per_word * words / Stdlib.max 1 eng.cfg.n_contexts
  in
  ignore
    (Sim.Event_queue.schedule st.Exec.State.evq
       ~time:(now eng + Stdlib.max 1 restore_time)
       Restore_done)

let finish_restore eng =
  let st = eng.st in
  eng.mode <- Normal;
  for tid = 0 to st.Exec.State.n_threads - 1 do
    let tcb = Exec.State.thread st tid in
    if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then
      Exec.Baseline.make_runnable eng.core tid
  done;
  (* Arm the alarm before dispatching so fused chains see its horizon. *)
  schedule_alarm eng;
  Exec.Baseline.fill_all eng.core;
  (* A report that arrived mid-restore is serviced now. *)
  match eng.pending_reports with
  | [] -> ()
  | (occurred_at, _ctx) :: rest ->
    eng.pending_reports <- rest;
    begin_restore eng ~occurred_at

(* ------------------------------------------------------------------ *)
(* Event handling                                                      *)
(* ------------------------------------------------------------------ *)

(* [Normal] is the shared core's tick: every path back to [Normal]
   (commit, skipped commit, finish of a restore) sets the mode before it
   refills, so the core never dispatches in another mode. *)
let tick eng ctx =
  let c = eng.core in
  let ctx_of = Exec.Baseline.ctx_of c in
  match eng.mode with
  | Restoring | Recording -> ()  (* context already halted/parked *)
  | Quiescing -> (
    (* Park at the coordination barrier. *)
    match ctx_of.(ctx) with
    | None -> ()
    | Some tid ->
      ctx_of.(ctx) <- None;
      let tcb = Exec.State.thread eng.st tid in
      if tcb.Vm.Tcb.wait = Vm.Tcb.Runnable then
        Exec.Baseline.make_runnable c tid;
      if all_ctx_idle eng then begin_recording eng)
  | Normal -> Exec.Baseline.tick c ctx

let schedule_next_fault eng =
  let inj, ev = Faults.Injector.next eng.injector in
  eng.injector <- inj;
  match ev with
  | None -> eng.hk.next_report_time <- max_int
  | Some ev ->
    let time =
      Stdlib.max
        (ev.Faults.Injector.occurred_at + eng.cfg.costs.Vm.Costs.detection_latency)
        (now eng)
    in
    eng.hk.next_report_time <- time;
    ignore
      (Sim.Event_queue.schedule eng.st.Exec.State.evq ~time
         (Fault_report
            { occurred_at = ev.Faults.Injector.occurred_at; ctx = ev.Faults.Injector.ctx }))

let run ?blocks cfg program =
  let st =
    Exec.State.create ?blocks ~reference:cfg.reference ~program ~costs:cfg.costs
      ~n_contexts:cfg.n_contexts ~seed:cfg.seed ()
  in
  let hk =
    { alarm_time = max_int; next_report_time = max_int; work_done = Exec.Tidtab.create 0 }
  in
  let eng =
    {
      cfg;
      st;
      core =
        Exec.Baseline.core st ~tick:(fun ctx -> Tick ctx) ~max_cycles:cfg.max_cycles
          ~bound:(fun () -> Stdlib.min hk.alarm_time hk.next_report_time)
          ~on_hop:(note_work hk);
      hk;
      mode = Normal;
      snaps = [];
      image_pool = [];
      cur_log = Exec.Undo_log.create ~paged:st.Exec.State.mem ();
      prev_log = Exec.Undo_log.create ~paged:st.Exec.State.mem ();
      alarm = None;
      ckpt_done_handle = None;
      quiesce_started = 0;
      injector =
        Faults.Injector.create cfg.injector ~n_contexts:cfg.n_contexts
          ~cycles_per_second:cfg.costs.Vm.Costs.cycles_per_second;
      pending_reports = [];
      consecutive_rollbacks = 0;
    }
  in
  st.Exec.State.current_undo <- Some eng.cur_log;
  (* Initial (time-0) checkpoint so recovery is always possible. *)
  eng.snaps <- [ take_snapshot eng ];
  Exec.Baseline.make_runnable eng.core Exec.State.main_tid;
  (* Horizons (alarm, fault report) are armed before the first dispatch
     so fused chains never cross them. *)
  schedule_alarm eng;
  schedule_next_fault eng;
  (match cfg.crash_at with
  | Some t -> ignore (Sim.Event_queue.schedule st.Exec.State.evq ~time:t Crash_point)
  | None -> ());
  Exec.Baseline.fill_all eng.core;
  let dnc () = Exec.State.mk_result st ~dnc:true in
  let rec loop () =
    if eng.consecutive_rollbacks > cfg.livelock_rollbacks then dnc ()
    else
      match Sim.Event_queue.pop st.Exec.State.evq with
      | None ->
        if Exec.State.all_exited st then Exec.State.mk_result st ~dnc:false
        else
          raise
            (Exec.State.Deadlock
               (Printf.sprintf "cpr: %d live threads, no pending events"
                  st.Exec.State.live_threads))
      | Some (time, ev) -> (
        match cfg.max_cycles with
        | Some budget when time > budget -> dnc ()
        | Some _ | None ->
          (match ev with
          | Tick ctx -> tick eng ctx
          | Ckpt_alarm ->
            eng.alarm <- None;
            if eng.mode = Normal then begin
              eng.mode <- Quiescing;
              eng.quiesce_started <- now eng;
              if all_ctx_idle eng then begin_recording eng
            end
            else schedule_alarm eng
          | Ckpt_done ->
            if eng.mode = Recording then begin
              (* Alarm first: commit dispatches, and fused chains must
                 not cross the next alarm. *)
              schedule_alarm eng;
              commit_checkpoint eng
            end
          | Fault_report { occurred_at; ctx } ->
            schedule_next_fault eng;
            if Exec.State.all_exited st then ()
            else if eng.mode = Restoring then
              eng.pending_reports <- eng.pending_reports @ [ (occurred_at, ctx) ]
            else begin_restore eng ~occurred_at
          | Restore_done -> finish_restore eng
          | Crash_point ->
            (* A crash behaves like an instantly-reported fault that
               occurred now: everything since the last committed global
               checkpoint is volatile and lost. *)
            Sim.Stats.incr st.Exec.State.stats "cpr.crash_restores";
            if Exec.State.all_exited st then ()
            else if eng.mode = Restoring then
              eng.pending_reports <- eng.pending_reports @ [ (time, 0) ]
            else begin_restore eng ~occurred_at:time);
          if eng.mode = Normal then Exec.Baseline.fill_all eng.core;
          if Exec.State.all_exited st then Exec.State.mk_result st ~dnc:false
          else loop ())
  in
  loop ()
