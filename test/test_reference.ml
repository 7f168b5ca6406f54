(* Production ≡ reference. Fused dispatch, superblock compilation and
   record/cell pooling are host-side speedups: every observable of a
   production run — output digest, simulated cycles, DNC flag, and every
   statistic except the profiling counters themselves — must equal the
   reference run's ([reference = true]: one instruction per event-queue
   hop, no compiled superblocks, no sub-thread record or event-cell
   reuse), for all three engines, under faults, checkpoints, recovery,
   whole-runtime crashes and restart. Directed tests pin down the deopt
   paths actually firing, and the pools' recycled records carrying
   nothing from a previous life.

   The cases keep their historical groups: [fusion] (engine sweeps and
   fault/restart deopts), [compile] (crash sweep and trace deopts) and
   [pool] (recycling). *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

let n_contexts = 4
let scale = 0.08

let build (spec : Workloads.Workload.spec) =
  spec.Workloads.Workload.build ~n_contexts ~grain:Workloads.Workload.Default
    ~scale

(* Everything observable about a run. Profiling keys ("dispatch.*",
   "fuse.*", "compile.*", "pool.*") are the one legitimate difference
   between the legs. *)
type obs = {
  o_digest : string;
  o_cycles : int;
  o_dnc : bool;
  o_stats : (string * float) list;
}

let prefixed ~prefix k =
  String.length k >= String.length prefix
  && String.sub k 0 (String.length prefix) = prefix

let profiling_key k =
  List.exists
    (fun prefix -> prefixed ~prefix k)
    [ "dispatch."; "fuse."; "compile."; "pool." ]

let observe digest (r : Exec.State.run_result) =
  {
    o_digest = digest r;
    o_cycles = r.Exec.State.sim_cycles;
    o_dnc = r.Exec.State.dnc;
    o_stats =
      List.filter
        (fun (k, _) -> not (profiling_key k))
        (Sim.Stats.to_assoc r.Exec.State.run_stats);
  }

let mem_digest (r : Exec.State.run_result) =
  string_of_int (Vm.Mem.read r.Exec.State.final_mem 0)

(* Run [f] once per leg, production first. [f] must build its own
   program: each leg needs fresh mutable memory. *)
let both_legs f = (f ~reference:false, f ~reference:true)

let with_profiling f =
  Vm.Block.set_profiling true;
  Fun.protect ~finally:(fun () -> Vm.Block.set_profiling false) f

let explain_stats_diff a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) b.o_stats;
  let diffs =
    List.filter_map
      (fun (k, v) ->
        match Hashtbl.find_opt tbl k with
        | Some v' when v = v' -> None
        | Some v' -> Some (Printf.sprintf "%s: production=%g reference=%g" k v v')
        | None -> Some (Printf.sprintf "%s: production=%g reference=absent" k v))
      a.o_stats
  in
  let missing =
    List.filter_map
      (fun (k, v) ->
        if List.mem_assoc k a.o_stats then None
        else Some (Printf.sprintf "%s: production=absent reference=%g" k v))
      b.o_stats
  in
  String.concat "; " (diffs @ missing)

let check_identical name (production, reference) =
  checks (name ^ ": digest") reference.o_digest production.o_digest;
  checki (name ^ ": sim_cycles") reference.o_cycles production.o_cycles;
  checkb (name ^ ": dnc") reference.o_dnc production.o_dnc;
  if production.o_stats <> reference.o_stats then
    Alcotest.failf "%s: stats differ — %s" name
      (explain_stats_diff production reference)

let obs_equal a b =
  a.o_digest = b.o_digest && a.o_cycles = b.o_cycles && a.o_dnc = b.o_dnc
  && a.o_stats = b.o_stats

(* Same fault-tolerance tuning as test_integration. *)
let gprs_k = function
  | "blackscholes" | "swaptions" | "barnes-hut" -> 1.2
  | "canneal" -> 3.0
  | _ -> 6.0

let rate_for ?cap ~k ~base () =
  let base_s =
    Sim.Time.to_seconds
      ~cycles_per_second:Vm.Costs.default.Vm.Costs.cycles_per_second base
  in
  let r = k /. base_s in
  match cap with Some c -> Float.min c r | None -> r

let baseline_cycles spec =
  (Exec.Baseline.run
     { Exec.Baseline.default_config with n_contexts }
     (build spec))
    .Exec.State.sim_cycles

(* A compute-bound program whose hot path compiles into a looping
   superblock: workers run [iters] outer iterations of an [inner]-long
   loop of two fused steps, then publish their private count through an
   atomic. The inner loop is one closure cycle; its exit branch
   mispredicts once per outer iteration. *)
let compute_loop ?(cost = 400) ~workers ~iters ~inner () =
  let open Vm.Builder in
  let worker = proc "worker" in
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      for_up worker ~reg:2 ~from:(fun _ -> 0) ~until:(fun _ -> inner) (fun () ->
          work_const worker cost (fun env ->
              Vm.Env.set env 3 (Vm.Env.get env 3 + 1));
          compute worker (cost / 2)));
  atomic worker ~var:(fun _ -> 0) ~dst:4 (fun ~old r -> old + r.(3));
  exit_ worker;
  let main = proc "main" in
  for i = 0 to workers - 1 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [||])
  done;
  for i = 0 to workers - 1 do
    join_reg main (10 + i)
  done;
  atomic main ~var:(fun _ -> 0) ~dst:3 (fun ~old _ -> old);
  work_const main 1 (fun env -> env.Vm.Env.write 0 (Vm.Env.get env 3));
  exit_ main;
  program ~mem_words:64 ~n_atomics:1 ~n_groups:2 ~entry:"main"
    [ finish main; finish worker ]

(* --- all workloads, all three engines -------------------------------- *)

let test_baseline_all_workloads () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let legs =
        both_legs (fun ~reference ->
            observe spec.Workloads.Workload.digest
              (Exec.Baseline.run
                 { Exec.Baseline.default_config with n_contexts; reference }
                 (build spec)))
      in
      check_identical ("baseline/" ^ spec.Workloads.Workload.name) legs)
    Workloads.Suite.all

let test_gprs_all_workloads_with_faults () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let name = spec.Workloads.Workload.name in
      let base = baseline_cycles spec in
      let legs =
        both_legs (fun ~reference ->
            observe spec.Workloads.Workload.digest
              (Gprs.Engine.run
                 {
                   Gprs.Engine.default_config with
                   n_contexts;
                   injector =
                     Faults.Injector.config (rate_for ~k:(gprs_k name) ~base ());
                   max_cycles = Some (300 * base);
                   reference;
                 }
                 (build spec)))
      in
      check_identical ("gprs/" ^ name) legs)
    Workloads.Suite.all

let test_cpr_all_workloads_with_faults () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let name = spec.Workloads.Workload.name in
      let base = baseline_cycles spec in
      let legs =
        both_legs (fun ~reference ->
            observe spec.Workloads.Workload.digest
              (Cpr.run
                 {
                   Cpr.default_config with
                   n_contexts;
                   checkpoint_interval = 0.002;
                   injector =
                     Faults.Injector.config (rate_for ~cap:25.0 ~k:2.0 ~base ());
                   max_cycles = Some (300 * base);
                   reference;
                 }
                 (build spec)))
      in
      check_identical ("cpr/" ^ name) legs)
    Workloads.Suite.all

let test_gprs_basic_recovery () =
  let spec = Workloads.Suite.find "histogram" in
  let base = baseline_cycles spec in
  let legs =
    both_legs (fun ~reference ->
        observe spec.Workloads.Workload.digest
          (Gprs.Engine.run
             {
               Gprs.Engine.default_config with
               n_contexts;
               recovery = Gprs.Engine.Basic;
               injector = Faults.Injector.config (rate_for ~k:5.0 ~base ());
               max_cycles = Some (300 * base);
               reference;
             }
             (build spec)))
  in
  check_identical "gprs basic recovery" legs

(* --- directed: a fault report landing mid-chain must deopt ------------ *)

(* Long straight-line Work runs under a tiny detection latency: report
   times land strictly inside would-be fused chains, so the horizon check
   (not a lucky boundary) is what keeps the legs identical. The
   production leg must actually fuse (hops < instrs); the reference leg
   must not fuse at all. *)
let test_gprs_mid_block_fault_deopt () =
  with_profiling @@ fun () ->
  let run ~reference =
    Gprs.Engine.run
      {
        Gprs.Engine.default_config with
        n_contexts;
        injector =
          Faults.Injector.config ~detection_latency:1_500
            ~process:Faults.Injector.Poisson 2_000.0;
        max_cycles = Some 2_000_000_000;
        reference;
      }
      (Tprog.locked_counter ~work:800 ~workers:4 ~iters:30 ())
  in
  let production_raw, reference_raw = both_legs run in
  let production = observe mem_digest production_raw in
  let stat (r : Exec.State.run_result) k = Sim.Stats.get r.Exec.State.run_stats k in
  checkb "run completed" false production.o_dnc;
  checks "counter value" "120" production.o_digest;
  checkb "faults were injected" true (stat production_raw "gprs.exceptions" > 0);
  checkb "production leg actually fused" true
    (stat production_raw "fuse.hops" > 0
    && stat production_raw "fuse.hops" < stat production_raw "instrs");
  checki "reference leg never fused" 0 (stat reference_raw "fuse.hops");
  check_identical "gprs mid-block fault"
    (production, observe mem_digest reference_raw)

(* --- directed: CPR restart must resume execution mid-block ------------ *)

(* After a rollback every thread restarts from its snapshot pc, which is
   usually in the middle of a static block; the restarted run then fuses
   again from that interior pc. Rollbacks are forced by a fault rate the
   checkpoint interval comfortably outpaces. *)
let test_cpr_restart_resumes_into_block () =
  let run ~reference =
    Cpr.run
      {
        Cpr.default_config with
        n_contexts;
        seed = 7;
        checkpoint_interval = 0.005;
        injector = Faults.Injector.config ~seed:7 25.0;
        max_cycles = Some 2_000_000_000;
        reference;
      }
      (Tprog.locked_counter ~work:20_000 ~workers:3 ~iters:8 ())
  in
  let production_raw, reference_raw = both_legs run in
  let production = observe mem_digest production_raw in
  checkb "run completed" false production.o_dnc;
  checks "counter value" "24" production.o_digest;
  checkb "rollbacks happened" true
    (Sim.Stats.get production_raw.Exec.State.run_stats "cpr.rollbacks" > 0);
  check_identical "cpr restart-resume"
    (production, observe mem_digest reference_raw)

(* --- crash-restart: cold recovery under both legs --------------------- *)

(* The WAL crash sweep replays every crash point and compares each
   recovered digest against the fault-free run; both legs must pass it
   and produce the same per-point outcomes (the WAL itself is an
   observable). *)
let test_crash_sweep_both_legs () =
  let spec = Workloads.Suite.find "histogram" in
  let program () =
    spec.Workloads.Workload.build ~n_contexts ~grain:Workloads.Workload.Default
      ~scale:0.05
  in
  let production, reference =
    both_legs (fun ~reference ->
        Recovery.sweep_gprs
          ~leg:(if reference then "reference" else "production")
          ~cfg:{ Gprs.Engine.default_config with n_contexts; seed = 3; reference }
          ~digest:spec.Workloads.Workload.digest (program ()))
  in
  List.iter
    (fun r ->
      checkb (Format.asprintf "%a" Recovery.pp_report r) true (Recovery.leg_ok r))
    [ production; reference ];
  checkb "points enumerated" true (production.Recovery.points_total > 0);
  checki "same crash points" reference.Recovery.points_total
    production.Recovery.points_total;
  Alcotest.(check (list (pair int string)))
    "same per-point outcomes" reference.Recovery.outcomes
    production.Recovery.outcomes;
  checki "same replayed LSNs" reference.Recovery.replayed_lsns
    production.Recovery.replayed_lsns

(* --- directed: a mispredicted branch guard must deopt ------------------ *)

let test_guard_deopt () =
  with_profiling @@ fun () ->
  let production_raw, reference_raw =
    both_legs (fun ~reference ->
        Exec.Baseline.run
          { Exec.Baseline.default_config with n_contexts; reference }
          (compute_loop ~workers:2 ~iters:6 ~inner:40 ()))
  in
  let production = observe mem_digest production_raw in
  checks "counter value" "480" production.o_digest;
  let stat (r : Exec.State.run_result) k = Sim.Stats.get r.Exec.State.run_stats k in
  checkb "traces were entered" true (stat production_raw "compile.entries" > 0);
  checkb "loop exits mispredicted" true
    (stat production_raw "compile.deopt.guard" > 0);
  checki "reference leg never entered a trace" 0
    (stat reference_raw "compile.entries");
  check_identical "guard deopt" (production, observe mem_digest reference_raw)

(* --- directed: a horizon landing mid-trace must deopt ------------------ *)

(* Under CPR the hop horizon includes the checkpoint alarm; an interval
   far shorter than the workers' compiled loops forces the alarm to land
   strictly inside traces, so the hoisted per-hop bound (not a lucky
   trace end) is what keeps the legs identical. *)
let test_horizon_deopt () =
  with_profiling @@ fun () ->
  let production_raw, reference_raw =
    both_legs (fun ~reference ->
        Cpr.run
          {
            Cpr.default_config with
            n_contexts;
            checkpoint_interval = 0.0005;
            reference;
          }
          (compute_loop ~cost:2_000 ~workers:2 ~iters:4 ~inner:300 ()))
  in
  let production = observe mem_digest production_raw in
  checks "counter value" "2400" production.o_digest;
  let stat k = Sim.Stats.get production_raw.Exec.State.run_stats k in
  checkb "traces were entered" true (stat "compile.entries" > 0);
  checkb "horizon landed mid-trace" true (stat "compile.deopt.horizon" > 0);
  checkb "checkpoints actually fired" true (stat "cpr.checkpoints" > 0);
  check_identical "horizon deopt" (production, observe mem_digest reference_raw)

(* --- properties: random programs, random rates ------------------------- *)

let qcase ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_gprs_locked_counters =
  qcase "gprs: fused ≡ unfused on random locked counters"
    QCheck2.Gen.(
      quad (int_range 2 5) (int_range 4 14) (int_range 1 10_000)
        (int_range 1 6))
    (fun (workers, iters, seed, rate10) ->
      let production, reference =
        both_legs (fun ~reference ->
            observe mem_digest
              (Gprs.Engine.run
                 {
                   Gprs.Engine.default_config with
                   n_contexts;
                   seed;
                   injector =
                     Faults.Injector.config ~seed
                       ~process:Faults.Injector.Poisson
                       (float_of_int rate10 *. 10.0);
                   max_cycles = Some 2_000_000_000;
                   reference;
                 }
                 (Tprog.locked_counter ~work:20_000 ~workers ~iters ())))
      in
      obs_equal production reference)

let prop_cpr_locked_counters =
  qcase ~count:10 "cpr: fused ≡ unfused on random locked counters"
    QCheck2.Gen.(triple (int_range 2 4) (int_range 4 10) (int_range 1 10_000))
    (fun (workers, iters, seed) ->
      let production, reference =
        both_legs (fun ~reference ->
            observe mem_digest
              (Cpr.run
                 {
                   Cpr.default_config with
                   n_contexts;
                   seed;
                   checkpoint_interval = 0.01;
                   injector = Faults.Injector.config ~seed 15.0;
                   max_cycles = Some 2_000_000_000;
                   reference;
                 }
                 (Tprog.locked_counter ~work:20_000 ~workers ~iters ())))
      in
      obs_equal production reference)

let prop_gprs_compute_loops =
  qcase "gprs: compiled ≡ interpreted on random compute loops"
    QCheck2.Gen.(
      quad (int_range 2 4) (int_range 2 8) (int_range 5 60)
        (int_range 1 10_000))
    (fun (workers, iters, inner, seed) ->
      let production, reference =
        both_legs (fun ~reference ->
            observe mem_digest
              (Gprs.Engine.run
                 {
                   Gprs.Engine.default_config with
                   n_contexts;
                   seed;
                   injector =
                     Faults.Injector.config ~seed
                       ~process:Faults.Injector.Poisson 300.0;
                   max_cycles = Some 2_000_000_000;
                   reference;
                 }
                 (compute_loop ~workers ~iters ~inner ())))
      in
      obs_equal production reference)

(* --- directed: a recycled record is indistinguishable from a fresh one  *)

let mk_tcb ?(regs = [||]) () =
  Vm.Tcb.create ~n_barriers:2 ~tid:0 ~group:0
    ~proc:{ Vm.Isa.pname = "p"; code = [| Vm.Isa.Exit |] }
    ~args:regs

(* A sub-thread observed through everything the engine ever reads. *)
let sub_fingerprint (s : Gprs.Subthread.t) =
  Format.asprintf "%a|gd=%b cpr=%b held=%s undo=%d forked=%s pend=%s freed=%d"
    Gprs.Subthread.pp s s.Gprs.Subthread.global_dep s.Gprs.Subthread.cpr_region
    (String.concat "," (List.map string_of_int s.Gprs.Subthread.held_locks))
    (Exec.Undo_log.size s.Gprs.Subthread.undo)
    (String.concat "," (List.map string_of_int s.Gprs.Subthread.forked))
    (match s.Gprs.Subthread.pending_mutex with
    | None -> "-"
    | Some m -> string_of_int m)
    (List.length s.Gprs.Subthread.freed_blocks)

let test_recycled_sub_is_fresh () =
  let pool = Gprs.Subthread.pool_create () in
  let tcb = mk_tcb ~regs:[| 7; 9 |] () in
  let s = Gprs.Subthread.acquire pool ~id:0 ~tid:0 ~now:5 ~tcb in
  (* Dirty every field a past life could leak through. *)
  Gprs.Subthread.add_alias s (Gprs.Subthread.Mutex 3);
  Gprs.Subthread.add_alias s (Gprs.Subthread.Atomic_var 40);
  Gprs.Subthread.add_alias s (Gprs.Subthread.Thread_edge 2);
  s.Gprs.Subthread.global_dep <- true;
  s.Gprs.Subthread.cpr_region <- true;
  s.Gprs.Subthread.held_locks <- [ 5; 1 ];
  s.Gprs.Subthread.forked <- [ 9 ];
  s.Gprs.Subthread.pending_mutex <- Some 2;
  s.Gprs.Subthread.freed_blocks <- [ (100, 16) ];
  ignore (Exec.Undo_log.note s.Gprs.Subthread.undo (Exec.Undo_log.K_mem 8) ~old:1);
  s.Gprs.Subthread.status <- Gprs.Subthread.Squashed;
  Gprs.Subthread.release pool s;
  (* Re-acquire (the pool hands the same record back) with a distinct
     TCB and compare against an unpooled fresh record. *)
  let tcb2 = mk_tcb ~regs:[| 11 |] () in
  tcb2.Vm.Tcb.pc <- 1;
  let r = Gprs.Subthread.acquire pool ~id:42 ~tid:3 ~now:77 ~tcb:tcb2 in
  checkb "record was recycled" true (r == s);
  let fresh =
    Gprs.Subthread.make ~id:42 ~tid:3 ~now:77 ~saved:(Vm.Tcb.copy_state tcb2)
  in
  checks "recycled ≡ fresh" (sub_fingerprint fresh) (sub_fingerprint r);
  (* The recycled saved buffer holds tcb2's state, not tcb's. *)
  let probe = mk_tcb () in
  Vm.Tcb.restore_state probe r.Gprs.Subthread.saved;
  checki "saved pc" 1 probe.Vm.Tcb.pc;
  checki "saved reg0" 11 probe.Vm.Tcb.regs.(0);
  checki "saved reg1" 0 probe.Vm.Tcb.regs.(1);
  let hits, misses, live_hw = Gprs.Subthread.pool_stats pool in
  checki "pool hits" 1 hits;
  checki "pool misses" 1 misses;
  checki "live high-water" 1 live_hw

(* qcheck flavour: an arbitrary mutation sequence, then recycle — the
   fingerprint must always equal a fresh record's. *)
let prop_recycled_sub_carries_nothing =
  qcase ~count:100 "pool: recycled sub-thread carries no prior state"
    QCheck2.Gen.(
      pair (list_size (int_range 0 20) (int_range 0 200)) (int_range 0 1000))
    (fun (codes, salt) ->
      let pool = Gprs.Subthread.pool_create () in
      let tcb = mk_tcb ~regs:[| salt |] () in
      let s = Gprs.Subthread.acquire pool ~id:salt ~tid:0 ~now:0 ~tcb in
      List.iter
        (fun c ->
          let obj = c / 5 in
          Gprs.Subthread.add_alias s
            (match c mod 5 with
            | 0 -> Gprs.Subthread.Mutex obj
            | 1 -> Gprs.Subthread.Atomic_var obj
            | 2 -> Gprs.Subthread.Condvar obj
            | 3 -> Gprs.Subthread.Barrier_obj obj
            | _ -> Gprs.Subthread.Thread_edge obj))
        codes;
      if salt mod 2 = 0 then s.Gprs.Subthread.global_dep <- true;
      s.Gprs.Subthread.held_locks <- codes;
      s.Gprs.Subthread.forked <- [ salt ];
      ignore
        (Exec.Undo_log.note s.Gprs.Subthread.undo
           (Exec.Undo_log.K_atomic (salt mod 7))
           ~old:salt);
      Gprs.Subthread.release pool s;
      let tcb2 = mk_tcb () in
      let r = Gprs.Subthread.acquire pool ~id:1 ~tid:1 ~now:9 ~tcb:tcb2 in
      let fresh =
        Gprs.Subthread.make ~id:1 ~tid:1 ~now:9 ~saved:(Vm.Tcb.copy_state tcb2)
      in
      sub_fingerprint r = sub_fingerprint fresh)

(* --- directed: event-queue cell recycling ----------------------------- *)

(* A handle kept across the cell's recycling must not cancel the cell's
   new occupant. *)
let test_evq_stale_handle_cannot_cancel () =
  let q = Sim.Event_queue.create () in
  let h1 = Sim.Event_queue.schedule q ~time:1 "a" in
  Alcotest.(check (option (pair int string)))
    "first event fires" (Some (1, "a"))
    (Sim.Event_queue.pop q);
  (* "a"'s cell is now on the free list; "b" reuses it. *)
  let _h2 = Sim.Event_queue.schedule q ~time:2 "b" in
  let _, recycled = Sim.Event_queue.cell_stats q in
  checki "cell was recycled" 1 recycled;
  Sim.Event_queue.cancel q h1;
  Alcotest.(check (option (pair int string)))
    "stale cancel must not kill the new occupant" (Some (2, "b"))
    (Sim.Event_queue.pop q)

let test_evq_recycles_and_is_invisible () =
  let drain q =
    let rec go acc =
      match Sim.Event_queue.pop q with
      | None -> List.rev acc
      | Some ev -> go (ev :: acc)
    in
    go []
  in
  let script recycle =
    let q = Sim.Event_queue.create ~recycle () in
    let hs =
      List.init 20 (fun i -> Sim.Event_queue.schedule q ~time:i (i * 3))
    in
    List.iteri (fun i h -> if i mod 4 = 0 then Sim.Event_queue.cancel q h) hs;
    let first = drain q in
    (* Second wave reuses popped cells (only in the recycling leg). *)
    let hs2 =
      List.init 20 (fun i -> Sim.Event_queue.schedule q ~time:(100 + i) i)
    in
    List.iteri (fun i h -> if i mod 3 = 0 then Sim.Event_queue.cancel q h) hs2;
    (first @ drain q, Sim.Event_queue.cell_stats q)
  in
  let events_on, (alloc_on, rec_on) = script true in
  let events_off, (alloc_off, rec_off) = script false in
  Alcotest.(check (list (pair int int)))
    "recycling is invisible to pop order" events_off events_on;
  checki "no recycling when disabled" 0 rec_off;
  checki "all cells fresh when disabled" 40 alloc_off;
  checkb "recycling actually happened" true (rec_on > 0);
  checkb "fewer fresh cells when recycling" true (alloc_on < alloc_off)

let fusion =
  [
    Alcotest.test_case "baseline: all workloads bit-identical" `Slow
      test_baseline_all_workloads;
    Alcotest.test_case "gprs: all workloads + faults bit-identical" `Slow
      test_gprs_all_workloads_with_faults;
    Alcotest.test_case "cpr: all workloads + faults bit-identical" `Slow
      test_cpr_all_workloads_with_faults;
    Alcotest.test_case "gprs: mid-block fault report deopts" `Quick
      test_gprs_mid_block_fault_deopt;
    Alcotest.test_case "cpr: restart resumes into a block" `Quick
      test_cpr_restart_resumes_into_block;
    Alcotest.test_case "gprs: basic recovery bit-identical" `Slow
      test_gprs_basic_recovery;
    prop_gprs_locked_counters;
    prop_cpr_locked_counters;
  ]

let compile =
  [
    Alcotest.test_case "gprs: crash sweep bit-identical" `Slow
      test_crash_sweep_both_legs;
    Alcotest.test_case "guard deopt: mispredicted loop exit" `Quick
      test_guard_deopt;
    Alcotest.test_case "horizon deopt: checkpoint alarm mid-trace" `Quick
      test_horizon_deopt;
    prop_gprs_compute_loops;
  ]

let pool =
  [
    Alcotest.test_case "pool: recycled sub ≡ fresh sub" `Quick
      test_recycled_sub_is_fresh;
    prop_recycled_sub_carries_nothing;
    Alcotest.test_case "evq: stale handle cannot cancel recycled cell" `Quick
      test_evq_stale_handle_cannot_cancel;
    Alcotest.test_case "evq: recycling invisible + counted" `Quick
      test_evq_recycles_and_is_invisible;
  ]
