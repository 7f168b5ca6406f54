(* CPR engine tests: fault-free equivalence with the baseline, checkpoint
   penalties, rollback correctness under injected exceptions, and the
   non-completion regime at high exception rates. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let crun ?(n_contexts = 4) ?(seed = 1) ?(interval = 0.05) ?(rate = 0.0)
    ?max_cycles ?(livelock = 50) ?(costs = Vm.Costs.default) program =
  Cpr.run
    {
      Cpr.default_config with
      n_contexts;
      seed;
      checkpoint_interval = interval;
      injector = Faults.Injector.config rate;
      max_cycles;
      livelock_rollbacks = livelock;
      costs;
    }
    program

let mem0 (r : Exec.State.run_result) = Vm.Mem.read r.Exec.State.final_mem 0

let test_fault_free_matches_baseline () =
  let programs =
    [
      ("fork_join", Tprog.fork_join_sum ~workers:6 ());
      ("locked", Tprog.locked_counter ~workers:3 ~iters:12 ());
      ("atomic", Tprog.atomic_adds ~workers:3 ~iters:7 ());
      ("barrier", Tprog.barrier_phases ~n:5 ());
      ("pipeline", Tprog.pipeline ~blocks:15 ~consumers:2 ());
      ("alloc", Tprog.alloc_churn ~workers:3 ~iters:4 ());
    ]
  in
  List.iter
    (fun (name, p) ->
      let b =
        Exec.Baseline.run { Exec.Baseline.default_config with n_contexts = 4 } p
      in
      let c = crun p in
      checkb (name ^ " completed") false c.Exec.State.dnc;
      check (name ^ ": same result") (mem0 b) (mem0 c))
    programs

let test_checkpoints_taken () =
  let r = crun ~interval:0.002 (Tprog.fork_join_sum ~workers:6 ()) in
  checkb "checkpoints committed" true
    (Sim.Stats.get r.Exec.State.run_stats "cpr.checkpoints" > 2)

let test_checkpointing_adds_overhead () =
  let p = Tprog.fork_join_sum ~workers:6 () in
  let b = Exec.Baseline.run { Exec.Baseline.default_config with n_contexts = 4 } p in
  let c = crun ~interval:0.002 p in
  checkb
    (Printf.sprintf "cpr slower (%d vs %d)" c.Exec.State.sim_cycles
       b.Exec.State.sim_cycles)
    true
    (c.Exec.State.sim_cycles > b.Exec.State.sim_cycles)

(* Long enough that exceptions actually strike mid-run (the detection
   latency alone is 40k cycles = 4ms of simulated time). *)
let long_counter () = Tprog.locked_counter ~work:30_000 ~workers:4 ~iters:40 ()

let test_recovers_correct_result () =
  (* Moderate rate: the run completes and the answer is exact. *)
  let r = crun ~interval:0.01 ~rate:10.0 (long_counter ()) in
  checkb "completed" false r.Exec.State.dnc;
  checkb "rolled back at least once" true
    (Sim.Stats.get r.Exec.State.run_stats "cpr.rollbacks" > 0);
  check "exact count" 160 (mem0 r)

let test_recovers_pipeline () =
  let r = crun ~interval:0.01 ~rate:6.0 (Tprog.pipeline ~blocks:20 ~consumers:2 ()) in
  checkb "completed" false r.Exec.State.dnc;
  check "exact result" (Tprog.pipeline_expected 20) (mem0 r)

let test_recovers_file_output () =
  let r = crun ~interval:0.005 ~rate:10.0 (Tprog.file_transform ~n:40 ()) in
  checkb "completed" false r.Exec.State.dnc;
  match r.Exec.State.outputs with
  | [ ("out", data) ] ->
    Alcotest.(check (array int)) "file exact" (Array.init 40 (fun i -> 3 * (i + 1))) data
  | _ -> Alcotest.fail "expected one output"

let test_alloc_rollback () =
  let r = crun ~interval:0.01 ~rate:6.0 (Tprog.alloc_churn ~workers:3 ~iters:6 ()) in
  checkb "completed" false r.Exec.State.dnc;
  check "exact" (Tprog.alloc_churn_expected 3 6) (mem0 r)

let test_dnc_at_high_rate () =
  (* Exceptions arrive faster than checkpoints can be re-established:
     the same work keeps being discarded and CPR never completes. *)
  let r =
    crun ~interval:0.05 ~rate:120.0 ~livelock:30
      ~max_cycles:(400 * 1_000_000)
      (long_counter ())
  in
  checkb "dnc" true r.Exec.State.dnc

let test_lost_work_grows_with_rate () =
  let lost rate =
    let r = crun ~interval:0.01 ~rate (long_counter ()) in
    checkb "completed" false r.Exec.State.dnc;
    Sim.Stats.get r.Exec.State.run_stats "cpr.lost_cycles"
  in
  let low = lost 4.0 and high = lost 20.0 in
  checkb (Printf.sprintf "more lost at higher rate (%d vs %d)" high low) true
    (high > low)

let test_progress_gate_blocks_commits_under_storm () =
  (* At an exception gap far below the interval, threads can never bank
     the required per-thread progress, so commits stop and the rollback
     livelock fires — the paper's "will never complete" regime. *)
  let r =
    crun ~interval:0.02 ~rate:300.0 ~livelock:30
      ~max_cycles:(200 * 1_000_000)
      (long_counter ())
  in
  checkb "dnc" true r.Exec.State.dnc;
  checkb "commits were skipped or absent" true
    (Sim.Stats.get r.Exec.State.run_stats "cpr.checkpoints" < 5)

(* P-CPR reports each exception [Vm.Costs.detection_latency] cycles after
   it occurs, the same latency GPRS reads: two runs that differ only in
   that cost must differ in when reports land, and so in the run. *)
let test_detection_latency_from_costs () =
  let run latency =
    let r =
      crun ~interval:0.01 ~rate:10.0
        ~costs:{ Vm.Costs.default with Vm.Costs.detection_latency = latency }
        (long_counter ())
    in
    checkb "completed" false r.Exec.State.dnc;
    check "exact count" 160 (mem0 r);
    (r.Exec.State.sim_cycles, Sim.Stats.get r.Exec.State.run_stats "cpr.rollbacks")
  in
  let short = run 40_000 and long = run 400_000 in
  checkb "latency changes cycles or rollbacks" true (short <> long)

let test_determinism () =
  let r1 = crun ~interval:0.01 ~rate:5.0 ~seed:3 (Tprog.atomic_adds ~workers:3 ~iters:8 ()) in
  let r2 = crun ~interval:0.01 ~rate:5.0 ~seed:3 (Tprog.atomic_adds ~workers:3 ~iters:8 ()) in
  check "same cycles" r1.Exec.State.sim_cycles r2.Exec.State.sim_cycles;
  check "same rollbacks"
    (Sim.Stats.get r1.Exec.State.run_stats "cpr.rollbacks")
    (Sim.Stats.get r2.Exec.State.run_stats "cpr.rollbacks")

let suite =
  [
    Alcotest.test_case "fault-free matches baseline" `Quick test_fault_free_matches_baseline;
    Alcotest.test_case "checkpoints taken" `Quick test_checkpoints_taken;
    Alcotest.test_case "checkpoint overhead" `Quick test_checkpointing_adds_overhead;
    Alcotest.test_case "recovers locked counter" `Quick test_recovers_correct_result;
    Alcotest.test_case "recovers pipeline" `Quick test_recovers_pipeline;
    Alcotest.test_case "recovers file output" `Quick test_recovers_file_output;
    Alcotest.test_case "recovers allocator" `Quick test_alloc_rollback;
    Alcotest.test_case "dnc at high rate" `Quick test_dnc_at_high_rate;
    Alcotest.test_case "lost work grows with rate" `Quick test_lost_work_grows_with_rate;
    Alcotest.test_case "progress gate under storm" `Quick
      test_progress_gate_blocks_commits_under_storm;
    Alcotest.test_case "detection latency read from costs" `Quick
      test_detection_latency_from_costs;
    Alcotest.test_case "determinism" `Quick test_determinism;
  ]
