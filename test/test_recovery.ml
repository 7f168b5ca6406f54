(* GPRS recovery tests: selective restart, basic recovery, hybrid regions
   and runtime exceptions, all under injected exceptions, checked against
   the exception-free oracle. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let grun ?(n_contexts = 4) ?(seed = 1) ?(rate = 0.0)
    ?(recovery = Gprs.Engine.Selective) ?(process = Faults.Injector.Periodic)
    ?max_cycles program =
  Gprs.Engine.run
    {
      Gprs.Engine.default_config with
      n_contexts;
      seed;
      recovery;
      injector = Faults.Injector.config ~process ~seed rate;
      max_cycles;
    }
    program

let mem0 (r : Exec.State.run_result) = Vm.Mem.read r.Exec.State.final_mem 0

let recoveries (r : Exec.State.run_result) =
  Sim.Stats.get r.Exec.State.run_stats "gprs.recoveries"
  + Sim.Stats.get r.Exec.State.run_stats "gprs.runtime_exceptions"

let test_selective_fork_join () =
  let r = grun ~rate:20.0 (Tprog.fork_join_sum ~workers:8 ()) in
  checkb "completed" false r.Exec.State.dnc;
  checkb "recovered at least once" true (recoveries r > 0);
  check "exact" (Tprog.fork_join_expected 8) (mem0 r)

let test_selective_locked_counter () =
  let r = grun ~rate:25.0 (Tprog.locked_counter ~workers:4 ~iters:20 ()) in
  checkb "completed" false r.Exec.State.dnc;
  check "exact" 80 (mem0 r)

let test_selective_atomics () =
  let r = grun ~rate:25.0 (Tprog.atomic_adds ~workers:4 ~iters:12 ()) in
  checkb "completed" false r.Exec.State.dnc;
  check "exact" 48 (mem0 r)

let test_selective_barrier () =
  let r = grun ~rate:25.0 (Tprog.barrier_phases ~n:6 ()) in
  checkb "completed" false r.Exec.State.dnc;
  check "no violation" 0 (mem0 r)

let test_selective_pipeline () =
  let r = grun ~rate:20.0 (Tprog.pipeline ~blocks:25 ~consumers:3 ()) in
  checkb "completed" false r.Exec.State.dnc;
  check "exact" (Tprog.pipeline_expected 25) (mem0 r)

let test_selective_alloc () =
  let r = grun ~rate:20.0 (Tprog.alloc_churn ~workers:3 ~iters:6 ()) in
  checkb "completed" false r.Exec.State.dnc;
  check "exact" (Tprog.alloc_churn_expected 3 6) (mem0 r)

let test_selective_file_output () =
  let r = grun ~rate:25.0 (Tprog.file_transform ~n:60 ()) in
  checkb "completed" false r.Exec.State.dnc;
  match r.Exec.State.outputs with
  | [ ("out", data) ] ->
    Alcotest.(check (array int)) "exact file" (Array.init 60 (fun i -> 3 * (i + 1))) data
  | _ -> Alcotest.fail "expected one output"

let test_hybrid_region () =
  let r = grun ~rate:15.0 (Tprog.nonstd_region ~workers:4 ~iters:10 ()) in
  checkb "completed" false r.Exec.State.dnc;
  check "exact" 40 (mem0 r)

let pthreads p = Exec.Baseline.run { Exec.Baseline.default_config with n_contexts = 4 } p

(* The final memory of a fault-free Pthreads run, addresses [0, n). *)
let pthreads_mem p n = List.init n (Vm.Mem.read (pthreads p).Exec.State.final_mem)

(* Runs [p] under Poisson exceptions at [rate] for each seed in [seeds],
   checks each run against the Pthreads memory [want], and returns the
   runs' [gprs.flattened_locks] total. At least [min_recovered] runs
   (default: every one) must recover from an exception. [max_cycles]
   bounds each run: a restart that wedges ends as DNC instead of running
   on. *)
let against_pthreads ?max_cycles ?min_recovered ~rate ~seeds ~want p =
  let recovered = ref 0 in
  let flattened =
    List.fold_left
      (fun flattened seed ->
        let r =
          Gprs.Engine.run
            {
              Gprs.Engine.default_config with
              n_contexts = 4;
              injector =
                Faults.Injector.config ~process:Faults.Injector.Poisson ~seed rate;
              max_cycles;
            }
            p
        in
        let tag = Printf.sprintf "seed %d: " seed in
        let stats = r.Exec.State.run_stats in
        checkb (tag ^ "completed") false r.Exec.State.dnc;
        if recoveries r > 0 then incr recovered;
        Alcotest.(check (list int))
          (tag ^ "pthreads result") want
          (List.init (List.length want) (Vm.Mem.read r.Exec.State.final_mem));
        flattened + Sim.Stats.get stats "gprs.flattened_locks")
      0 seeds
  in
  let min_recovered = Option.value ~default:(List.length seeds) min_recovered in
  checkb
    (Printf.sprintf "%d of %d runs recovered (want %d)" !recovered
       (List.length seeds) min_recovered)
    true
    (!recovered >= min_recovered);
  flattened

let test_nested_lock_under_faults () =
  (* A lock taken while another is held is the one sync point that can
     join its enclosing sub-thread. The inner mutex is also taken on its
     own, so a flattened lock can follow a younger sub-thread's release:
     that lock must be a boundary, or a squash of the releaser loses the
     nested section's update. *)
  let p = Tprog.nested_locks ~workers:3 ~iters:8 () in
  let want = pthreads_mem p 2 in
  Alcotest.(check (list int)) "pthreads counts" [ 24; 48 ] want;
  let flattened =
    against_pthreads ~rate:2000.0 ~seeds:(List.init 20 succ) ~want p
  in
  checkb "nested locks flattened" true (flattened > 0)

let test_lock_in_region_under_faults () =
  (* A lock inside a hybrid-recovery region is a sub-thread boundary like
     any other. *)
  let p = Tprog.locked_region ~workers:4 ~iters:10 () in
  let want = pthreads_mem p 1 in
  Alcotest.(check (list int)) "pthreads count" [ 40 ] want;
  check "no lock flattened" 0
    (against_pthreads ~rate:2000.0 ~seeds:(List.init 20 succ) ~want p)

let seeds_1_40 = List.init 40 succ

let test_barrier_release_is_a_wake () =
  (* A barrier's release is a communication edge into every waiter: each
     waiter resumes in a sub-thread younger than the releasing arrival, so
     squashing the releaser squashes the waiters' verification reads and
     sends them back onto the barrier. At 2,000/s some runs see no
     exception at all. *)
  let p = Tprog.barrier_phases ~n:6 () in
  let want = pthreads_mem p 16 in
  List.iter
    (fun (rate, min_recovered) ->
      ignore (against_pthreads ~min_recovered ~rate ~seeds:seeds_1_40 ~want p))
    [ (2000.0, 20); (10000.0, 40) ]

let test_two_barrier_steps () =
  (* Barnes-hut's shape: each phase reads across a barrier what another
     thread wrote in the phase before, and main's [barrier 0] is followed
     directly by [barrier 1], so a restored wake checkpoint sits at a sync
     point. Every run completes within 30x the Pthreads cycles. *)
  let p = Tprog.barrier_steps ~workers:4 ~steps:5 () in
  let base = pthreads p in
  let want = List.init 48 (Vm.Mem.read base.Exec.State.final_mem) in
  ignore
    (against_pthreads ~max_cycles:(30 * base.Exec.State.sim_cycles) ~rate:1000.0
       ~seeds:seeds_1_40 ~want p)

let test_restored_thread_is_squashable () =
  (* A restored thread holds a live sub-thread from the restore on, so a
     later squash of the wake it resumed from reaches it even before its
     next dispatch. Pbzip2 at 8 contexts and a high rate restores threads
     into exactly that window. *)
  let spec = Workloads.Suite.find "pbzip2" in
  let program =
    spec.Workloads.Workload.build ~n_contexts:8 ~grain:Workloads.Workload.Default
      ~scale:0.2
  in
  let blocks = Vm.Block.analyze program in
  let want =
    spec.Workloads.Workload.digest
      (Exec.Baseline.run ~blocks
         { Exec.Baseline.default_config with n_contexts = 8 }
         program)
  in
  List.iter
    (fun seed ->
      let r =
        Gprs.Engine.run ~blocks
          {
            Gprs.Engine.default_config with
            n_contexts = 8;
            seed;
            injector = Faults.Injector.config ~seed 1000.0;
          }
          program
      in
      let tag = Printf.sprintf "seed %d: " seed in
      checkb (tag ^ "completed") false r.Exec.State.dnc;
      checkb (tag ^ "recovered") true (recoveries r > 0);
      Alcotest.(check string) (tag ^ "pthreads digest") want
        (spec.Workloads.Workload.digest r))
    seeds_1_40

let test_basic_recovery () =
  let r =
    grun ~rate:15.0 ~recovery:Gprs.Engine.Basic
      (Tprog.locked_counter ~workers:4 ~iters:15 ())
  in
  checkb "completed" false r.Exec.State.dnc;
  check "exact" 60 (mem0 r)

let test_basic_squashes_more () =
  (* Basic recovery discards the victim and ALL younger sub-threads;
     selective discards only dependents. *)
  let squashed recovery =
    let r =
      grun ~rate:10.0 ~recovery ~seed:5 (Tprog.fork_join_sum ~workers:8 ())
    in
    checkb "completed" false r.Exec.State.dnc;
    check "exact" (Tprog.fork_join_expected 8) (mem0 r);
    Sim.Stats.get r.Exec.State.run_stats "gprs.squashed_subs"
  in
  let basic = squashed Gprs.Engine.Basic in
  let selective = squashed Gprs.Engine.Selective in
  checkb
    (Printf.sprintf "basic >= selective (%d vs %d)" basic selective)
    true (basic >= selective)

let test_poisson_process () =
  let r =
    grun ~rate:20.0 ~process:Faults.Injector.Poisson
      (Tprog.locked_counter ~workers:4 ~iters:15 ())
  in
  checkb "completed" false r.Exec.State.dnc;
  check "exact" 60 (mem0 r)

let test_survives_very_high_rate () =
  (* Sub-threads here are small, so GPRS absorbs rates where CPR dies. *)
  let r = grun ~rate:100.0 (Tprog.locked_counter ~workers:4 ~iters:12 ()) in
  checkb "completed" false r.Exec.State.dnc;
  check "exact" 48 (mem0 r)

let test_exceptions_on_idle_contexts () =
  (* More contexts than work: many exceptions strike idle contexts and
     exercise the WAL-based runtime repair path. *)
  let r =
    grun ~n_contexts:16 ~rate:100.0
      (Tprog.locked_counter ~work:30_000 ~workers:2 ~iters:40 ())
  in
  checkb "completed" false r.Exec.State.dnc;
  checkb "runtime exceptions seen" true
    (Sim.Stats.get r.Exec.State.run_stats "gprs.runtime_exceptions" > 0);
  check "exact" 80 (mem0 r)

let test_determinism_with_faults () =
  let r1 = grun ~rate:20.0 ~seed:4 (Tprog.atomic_adds ~workers:3 ~iters:10 ()) in
  let r2 = grun ~rate:20.0 ~seed:4 (Tprog.atomic_adds ~workers:3 ~iters:10 ()) in
  check "same cycles" r1.Exec.State.sim_cycles r2.Exec.State.sim_cycles;
  check "same squashes"
    (Sim.Stats.get r1.Exec.State.run_stats "gprs.squashed_subs")
    (Sim.Stats.get r2.Exec.State.run_stats "gprs.squashed_subs")

let test_gprs_beats_cpr_at_high_rate () =
  (* The headline behaviour (paper Fig. 10): at rates where CPR fails to
     complete, GPRS finishes with bounded overhead. *)
  (* Independent sub-threads (fork/join): selective restart loses only
     the struck worker, while CPR keeps discarding the whole program. The
     rate is chosen so the inter-exception gap ~ the detection latency:
     nearly every coordinated checkpoint is contaminated, while individual
     60k-cycle sub-threads still usually finish between strikes. *)
  let p = Tprog.fork_join_sum ~work:60_000 ~workers:16 () in
  let budget = 120 * 1_000_000 in
  let c =
    Cpr.run
      {
        Cpr.default_config with
        n_contexts = 4;
        checkpoint_interval = 0.02;
        injector = Faults.Injector.config 250.0;
        livelock_rollbacks = 40;
        max_cycles = Some budget;
      }
      p
  in
  let g = grun ~rate:250.0 ~max_cycles:budget p in
  checkb "cpr dnc" true c.Exec.State.dnc;
  checkb "gprs completes" false g.Exec.State.dnc;
  check "gprs exact" (Tprog.fork_join_expected 16) (mem0 g)

let test_recorded_order_recovery () =
  (* Selective restart works off the recorded dynamic order too. *)
  let r =
    Gprs.Engine.run
      {
        Gprs.Engine.default_config with
        n_contexts = 4;
        ordering = Gprs.Order.Recorded;
        injector = Faults.Injector.config 40.0;
      }
      (Tprog.locked_counter ~work:20_000 ~workers:4 ~iters:20 ())
  in
  checkb "completed" false r.Exec.State.dnc;
  check "exact" 80 (mem0 r)

let test_context_revocation_survives () =
  (* Permanent revocations: the run continues on the surviving contexts. *)
  let r =
    Gprs.Engine.run
      {
        Gprs.Engine.default_config with
        n_contexts = 8;
        revoke_contexts = true;
        injector =
          Faults.Injector.config ~kinds:[ Faults.Injector.Resource_revocation ] 20.0;
        max_cycles = Some 2_000_000_000;
      }
      (Tprog.fork_join_sum ~work:600_000 ~workers:16 ())
  in
  checkb "completed" false r.Exec.State.dnc;
  checkb "contexts were revoked" true
    (Sim.Stats.get r.Exec.State.run_stats "gprs.contexts_revoked" > 0);
  check "exact" (Tprog.fork_join_expected 16) (mem0 r)

let test_all_contexts_revoked_is_dnc () =
  let r =
    Gprs.Engine.run
      {
        Gprs.Engine.default_config with
        n_contexts = 2;
        revoke_contexts = true;
        injector =
          Faults.Injector.config ~kinds:[ Faults.Injector.Resource_revocation ] 200.0;
        max_cycles = Some 2_000_000_000;
      }
      (Tprog.fork_join_sum ~work:2_000_000 ~workers:8 ())
  in
  checkb "dnc once the machine is gone" true r.Exec.State.dnc

let test_unaffected_work_not_discarded () =
  (* With selective restart the squashed work per recovery should be a
     small fraction of all sub-threads. *)
  let r = grun ~rate:10.0 (Tprog.fork_join_sum ~workers:8 ()) in
  let squashed = Sim.Stats.get r.Exec.State.run_stats "gprs.squashed_subs" in
  let recs = Sim.Stats.get r.Exec.State.run_stats "gprs.recoveries" in
  if recs > 0 then
    checkb
      (Printf.sprintf "few squashed per recovery (%d/%d)" squashed recs)
      true
      (squashed / recs <= 4)

let suite =
  [
    Alcotest.test_case "selective: fork/join" `Quick test_selective_fork_join;
    Alcotest.test_case "selective: locked counter" `Quick test_selective_locked_counter;
    Alcotest.test_case "selective: atomics" `Quick test_selective_atomics;
    Alcotest.test_case "selective: barrier" `Quick test_selective_barrier;
    Alcotest.test_case "selective: pipeline" `Quick test_selective_pipeline;
    Alcotest.test_case "selective: allocator" `Quick test_selective_alloc;
    Alcotest.test_case "selective: file output" `Quick test_selective_file_output;
    Alcotest.test_case "hybrid region" `Quick test_hybrid_region;
    Alcotest.test_case "nested lock under faults" `Quick test_nested_lock_under_faults;
    Alcotest.test_case "lock in region under faults" `Quick test_lock_in_region_under_faults;
    Alcotest.test_case "barrier release is a wake" `Quick test_barrier_release_is_a_wake;
    Alcotest.test_case "two-barrier steps under faults" `Quick test_two_barrier_steps;
    Alcotest.test_case "restored thread is squashable" `Quick
      test_restored_thread_is_squashable;
    Alcotest.test_case "basic recovery" `Quick test_basic_recovery;
    Alcotest.test_case "basic squashes more" `Quick test_basic_squashes_more;
    Alcotest.test_case "poisson arrivals" `Quick test_poisson_process;
    Alcotest.test_case "very high rate" `Quick test_survives_very_high_rate;
    Alcotest.test_case "idle-context (runtime) exceptions" `Quick test_exceptions_on_idle_contexts;
    Alcotest.test_case "determinism with faults" `Quick test_determinism_with_faults;
    Alcotest.test_case "gprs beats cpr at high rate" `Quick test_gprs_beats_cpr_at_high_rate;
    Alcotest.test_case "selective discards little" `Quick test_unaffected_work_not_discarded;
    Alcotest.test_case "recorded-order recovery" `Quick test_recorded_order_recovery;
    Alcotest.test_case "context revocation survives" `Quick test_context_revocation_survives;
    Alcotest.test_case "all contexts revoked = dnc" `Quick test_all_contexts_revoked_is_dnc;
  ]
