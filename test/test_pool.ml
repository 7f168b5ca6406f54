(* Pooling must be a pure performance transformation: recycling
   sub-thread records (with their saved buffers and undo logs) and
   event-queue cells must leave every observable of a run — output
   digest, simulated cycles, DNC flag, and every statistic — bit-identical
   with pooling on and off, for all three engines, under faults, recovery
   and restart. Plus: a recycled record must carry nothing from its
   previous life, and a stale event handle must never cancel a recycled
   cell's new occupant. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

let n_contexts = 4
let scale = 0.08

let build (spec : Workloads.Workload.spec) =
  spec.Workloads.Workload.build ~n_contexts ~grain:Workloads.Workload.Default
    ~scale

type obs = {
  o_digest : string;
  o_cycles : int;
  o_dnc : bool;
  o_stats : (string * float) list;
}

let observe digest (r : Exec.State.run_result) =
  {
    o_digest = digest r;
    o_cycles = r.Exec.State.sim_cycles;
    o_dnc = r.Exec.State.dnc;
    o_stats = Sim.Stats.to_assoc r.Exec.State.run_stats;
  }

(* One switch drives both recycling layers, like GPRS_NO_POOL does. *)
let with_pooling b f =
  let sub_saved = Gprs.Subthread.pooling ()
  and evq_saved = Sim.Event_queue.recycling () in
  Gprs.Subthread.set_pooling b;
  Sim.Event_queue.set_recycling b;
  Fun.protect
    ~finally:(fun () ->
      Gprs.Subthread.set_pooling sub_saved;
      Sim.Event_queue.set_recycling evq_saved)
    f

(* [f] must build its own program: each leg needs fresh mutable memory. *)
let both_legs f = (with_pooling true f, with_pooling false f)

let explain_stats_diff a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) b.o_stats;
  let diffs =
    List.filter_map
      (fun (k, v) ->
        match Hashtbl.find_opt tbl k with
        | Some v' when v = v' -> None
        | Some v' -> Some (Printf.sprintf "%s: pooled=%g unpooled=%g" k v v')
        | None -> Some (Printf.sprintf "%s: pooled=%g unpooled=absent" k v))
      a.o_stats
  in
  let missing =
    List.filter_map
      (fun (k, v) ->
        if List.mem_assoc k a.o_stats then None
        else Some (Printf.sprintf "%s: pooled=absent unpooled=%g" k v))
      b.o_stats
  in
  String.concat "; " (diffs @ missing)

let check_identical name (pooled, unpooled) =
  checks (name ^ ": digest") unpooled.o_digest pooled.o_digest;
  checki (name ^ ": sim_cycles") unpooled.o_cycles pooled.o_cycles;
  checkb (name ^ ": dnc") unpooled.o_dnc pooled.o_dnc;
  if pooled.o_stats <> unpooled.o_stats then
    Alcotest.failf "%s: stats differ — %s" name
      (explain_stats_diff pooled unpooled)

(* Same fault-tolerance tuning as test_integration / test_fusion. *)
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

(* --- all workloads, all three engines -------------------------------- *)

let test_baseline_all_workloads () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let digest = spec.Workloads.Workload.digest in
      let legs =
        both_legs (fun () ->
            observe digest
              (Exec.Baseline.run
                 { Exec.Baseline.default_config with n_contexts }
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
        both_legs (fun () ->
            observe spec.Workloads.Workload.digest
              (Gprs.Engine.run
                 {
                   Gprs.Engine.default_config with
                   n_contexts;
                   injector =
                     Faults.Injector.config (rate_for ~k:(gprs_k name) ~base ());
                   max_cycles = Some (300 * base);
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
        both_legs (fun () ->
            observe spec.Workloads.Workload.digest
              (Cpr.run
                 {
                   Cpr.default_config with
                   n_contexts;
                   checkpoint_interval = 0.002;
                   injector =
                     Faults.Injector.config (rate_for ~cap:25.0 ~k:2.0 ~base ());
                   max_cycles = Some (300 * base);
                 }
                 (build spec)))
      in
      check_identical ("cpr/" ^ name) legs)
    Workloads.Suite.all

let test_gprs_basic_recovery () =
  let spec = Workloads.Suite.find "histogram" in
  let base = baseline_cycles spec in
  let legs =
    both_legs (fun () ->
        observe spec.Workloads.Workload.digest
          (Gprs.Engine.run
             {
               Gprs.Engine.default_config with
               n_contexts;
               recovery = Gprs.Engine.Basic;
               injector = Faults.Injector.config (rate_for ~k:5.0 ~base ());
               max_cycles = Some (300 * base);
             }
             (build spec)))
  in
  check_identical "gprs basic recovery" legs

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
  with_pooling true (fun () ->
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
      checki "live high-water" 1 live_hw)

(* qcheck flavour: an arbitrary mutation sequence, then recycle — the
   fingerprint must always equal a fresh record's. *)
let qcase ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_recycled_sub_carries_nothing =
  qcase ~count:100 "pool: recycled sub-thread carries no prior state"
    QCheck2.Gen.(
      pair (list_size (int_range 0 20) (int_range 0 200)) (int_range 0 1000))
    (fun (codes, salt) ->
      with_pooling true (fun () ->
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
            Gprs.Subthread.make ~id:1 ~tid:1 ~now:9
              ~saved:(Vm.Tcb.copy_state tcb2)
          in
          sub_fingerprint r = sub_fingerprint fresh))

(* --- directed: event-queue cell recycling ----------------------------- *)

(* A handle kept across the cell's recycling must not cancel the cell's
   new occupant. *)
let test_evq_stale_handle_cannot_cancel () =
  with_pooling true (fun () ->
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
        (Sim.Event_queue.pop q))

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
    with_pooling recycle (fun () ->
        let q = Sim.Event_queue.create () in
        let hs =
          List.init 20 (fun i -> Sim.Event_queue.schedule q ~time:i (i * 3))
        in
        List.iteri
          (fun i h -> if i mod 4 = 0 then Sim.Event_queue.cancel q h)
          hs;
        let first = drain q in
        (* Second wave reuses popped cells (only in the recycling leg). *)
        let hs2 =
          List.init 20 (fun i -> Sim.Event_queue.schedule q ~time:(100 + i) i)
        in
        List.iteri
          (fun i h -> if i mod 3 = 0 then Sim.Event_queue.cancel q h)
          hs2;
        (first @ drain q, Sim.Event_queue.cell_stats q))
  in
  let events_on, (alloc_on, rec_on) = script true in
  let events_off, (alloc_off, rec_off) = script false in
  Alcotest.(check (list (pair int int)))
    "recycling is invisible to pop order" events_off events_on;
  checki "no recycling when disabled" 0 rec_off;
  checki "all cells fresh when disabled" 40 alloc_off;
  checkb "recycling actually happened" true (rec_on > 0);
  checkb "fewer fresh cells when recycling" true (alloc_on < alloc_off)

(* --- property: random programs under faults, pooled ≡ unpooled -------- *)

let obs_equal a b =
  a.o_digest = b.o_digest && a.o_cycles = b.o_cycles && a.o_dnc = b.o_dnc
  && a.o_stats = b.o_stats

let prop_gprs_pooling_invisible =
  qcase "gprs: pooled ≡ unpooled on random locked counters"
    QCheck2.Gen.(
      quad (int_range 2 5) (int_range 4 14) (int_range 1 10_000)
        (int_range 1 6))
    (fun (workers, iters, seed, rate10) ->
      let run () =
        observe
          (fun r -> string_of_int (Vm.Mem.read r.Exec.State.final_mem 0))
          (Gprs.Engine.run
             {
               Gprs.Engine.default_config with
               n_contexts;
               seed;
               injector =
                 Faults.Injector.config ~seed ~process:Faults.Injector.Poisson
                   (float_of_int rate10 *. 10.0);
               max_cycles = Some 2_000_000_000;
             }
             (Tprog.locked_counter ~work:20_000 ~workers ~iters ()))
      in
      let pooled, unpooled = both_legs run in
      obs_equal pooled unpooled)

let suite =
  [
    Alcotest.test_case "baseline: all workloads bit-identical" `Slow
      test_baseline_all_workloads;
    Alcotest.test_case "gprs: all workloads + faults bit-identical" `Slow
      test_gprs_all_workloads_with_faults;
    Alcotest.test_case "cpr: all workloads + faults bit-identical" `Slow
      test_cpr_all_workloads_with_faults;
    Alcotest.test_case "gprs: basic recovery bit-identical" `Slow
      test_gprs_basic_recovery;
    Alcotest.test_case "pool: recycled sub ≡ fresh sub" `Quick
      test_recycled_sub_is_fresh;
    prop_recycled_sub_carries_nothing;
    Alcotest.test_case "evq: stale handle cannot cancel recycled cell" `Quick
      test_evq_stale_handle_cannot_cancel;
    Alcotest.test_case "evq: recycling invisible + counted" `Quick
      test_evq_recycles_and_is_invisible;
    prop_gprs_pooling_invisible;
  ]
