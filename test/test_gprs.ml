(* Fault-free GPRS engine tests: the deterministic execution engine must
   produce the same architectural results as the Pthreads baseline on
   every program shape, while creating/ordering/retiring sub-threads. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let grun ?(n_contexts = 4) ?(seed = 1) ?(ordering = Gprs.Order.Balance_aware)
    ?max_cycles program =
  Gprs.Engine.run
    { Gprs.Engine.default_config with n_contexts; seed; ordering; max_cycles }
    program

let mem0 (r : Exec.State.run_result) = Vm.Mem.read r.Exec.State.final_mem 0

let test_fork_join () =
  let r = grun (Tprog.fork_join_sum ~workers:8 ()) in
  checkb "completed" false r.Exec.State.dnc;
  check "sum" (Tprog.fork_join_expected 8) (mem0 r)

let test_fork_join_single_context () =
  let r = grun ~n_contexts:1 (Tprog.fork_join_sum ~workers:5 ()) in
  check "sum" (Tprog.fork_join_expected 5) (mem0 r)

let test_fork_join_round_robin () =
  let r = grun ~ordering:Gprs.Order.Round_robin (Tprog.fork_join_sum ~workers:8 ()) in
  check "sum" (Tprog.fork_join_expected 8) (mem0 r)

let test_mutex_counter () =
  let r = grun (Tprog.locked_counter ~workers:6 ~iters:25 ()) in
  check "count" 150 (mem0 r)

let test_mutex_counter_round_robin () =
  let r =
    grun ~ordering:Gprs.Order.Round_robin (Tprog.locked_counter ~workers:6 ~iters:25 ())
  in
  check "count" 150 (mem0 r)

let test_atomic_adds () =
  let r = grun (Tprog.atomic_adds ~workers:4 ~iters:10 ()) in
  check "count" 40 (mem0 r)

let test_barrier () =
  let r = grun ~n_contexts:3 (Tprog.barrier_phases ~n:7 ()) in
  check "no violation" 0 (mem0 r)

let test_pipeline () =
  let r = grun ~n_contexts:4 (Tprog.pipeline ~blocks:25 ~consumers:3 ()) in
  check "processed" (Tprog.pipeline_expected 25) (mem0 r)

let test_pipeline_round_robin () =
  let r =
    grun ~n_contexts:4 ~ordering:Gprs.Order.Round_robin
      (Tprog.pipeline ~blocks:25 ~consumers:3 ())
  in
  check "processed" (Tprog.pipeline_expected 25) (mem0 r)

let test_pipeline_weighted () =
  let p = Tprog.pipeline ~blocks:25 ~consumers:3 () in
  let p = { p with Vm.Isa.group_weights = [| 2; 1 |] } in
  let r = grun ~n_contexts:4 ~ordering:Gprs.Order.Weighted p in
  check "processed" (Tprog.pipeline_expected 25) (mem0 r)

let test_alloc_churn () =
  let r = grun (Tprog.alloc_churn ~workers:4 ~iters:6 ()) in
  check "sum" (Tprog.alloc_churn_expected 4 6) (mem0 r)

let test_nonstd_region () =
  let r = grun (Tprog.nonstd_region ~workers:4 ~iters:10 ()) in
  check "count" 40 (mem0 r)

let test_file_io () =
  let r = grun (Tprog.file_transform ~n:5 ()) in
  match r.Exec.State.outputs with
  | [ ("out", data) ] -> Alcotest.(check (array int)) "tripled" [| 3; 6; 9; 12; 15 |] data
  | _ -> Alcotest.fail "expected one output"

let test_subthreads_created () =
  let r = grun (Tprog.locked_counter ~workers:4 ~iters:5 ()) in
  let subs = Sim.Stats.get r.Exec.State.run_stats "gprs.subthreads" in
  (* 1 (main) + per worker: 1 initial + 20 lock subs + ... at least
     workers * iters lock boundaries. *)
  checkb (Printf.sprintf "many subs (%d)" subs) true (subs >= 4 * 5);
  check "all retired" subs (Sim.Stats.get r.Exec.State.run_stats "gprs.retired")

let test_tokens_granted () =
  let r = grun (Tprog.locked_counter ~workers:4 ~iters:5 ()) in
  checkb "tokens flowed" true (Sim.Stats.get r.Exec.State.run_stats "gprs.tokens" > 20)

let test_determinism () =
  let run1 = grun ~seed:3 (Tprog.pipeline ~blocks:20 ~consumers:2 ()) in
  let run2 = grun ~seed:3 (Tprog.pipeline ~blocks:20 ~consumers:2 ()) in
  check "same cycles" run1.Exec.State.sim_cycles run2.Exec.State.sim_cycles;
  check "same subs"
    (Sim.Stats.get run1.Exec.State.run_stats "gprs.subthreads")
    (Sim.Stats.get run2.Exec.State.run_stats "gprs.subthreads")

let test_determinism_across_seeds () =
  (* GPRS's promise: the deterministic schedule does not depend on the
     seed (which only drives fault injection and baseline scheduling). *)
  let run1 = grun ~seed:1 (Tprog.pipeline ~blocks:20 ~consumers:2 ()) in
  let run2 = grun ~seed:99 (Tprog.pipeline ~blocks:20 ~consumers:2 ()) in
  check "same result" (mem0 run1) (mem0 run2);
  check "same subthreads"
    (Sim.Stats.get run1.Exec.State.run_stats "gprs.subthreads")
    (Sim.Stats.get run2.Exec.State.run_stats "gprs.subthreads");
  check "same cycles" run1.Exec.State.sim_cycles run2.Exec.State.sim_cycles

let test_matches_baseline_everywhere () =
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
      let g = grun p in
      check (name ^ ": same result") (mem0 b) (mem0 g))
    programs

let test_recorded_ordering_results () =
  (* The nondeterministic (recorded-order) variant of §2.4: same results,
     no enforced turns. *)
  let programs =
    [
      ("fork_join", Tprog.fork_join_sum ~workers:6 (), Tprog.fork_join_expected 6);
      ("locked", Tprog.locked_counter ~workers:4 ~iters:12 (), 48);
      ("pipeline", Tprog.pipeline ~blocks:20 ~consumers:3 (), Tprog.pipeline_expected 20);
    ]
  in
  List.iter
    (fun (name, p, expected) ->
      let r = grun ~ordering:Gprs.Order.Recorded p in
      checkb (name ^ " completed") false r.Exec.State.dnc;
      check (name ^ " result") expected (mem0 r))
    programs

let test_recorded_no_token_waits () =
  (* Recorded mode still creates sub-threads but grants on arrival. *)
  let r = grun ~ordering:Gprs.Order.Recorded (Tprog.locked_counter ~workers:4 ~iters:10 ()) in
  checkb "subs created" true (Sim.Stats.get r.Exec.State.run_stats "gprs.subthreads" > 40);
  check "all retired"
    (Sim.Stats.get r.Exec.State.run_stats "gprs.subthreads")
    (Sim.Stats.get r.Exec.State.run_stats "gprs.retired")

let test_recorded_cheaper_than_round_robin () =
  (* No ordering waits: recorded should not exceed the round-robin time
     on a pipeline. *)
  let p = Tprog.pipeline ~blocks:30 ~consumers:3 ~work_c:20_000 () in
  let rr = (grun ~ordering:Gprs.Order.Round_robin p).Exec.State.sim_cycles in
  let rec_ = (grun ~ordering:Gprs.Order.Recorded p).Exec.State.sim_cycles in
  checkb (Printf.sprintf "recorded <= round-robin (%d vs %d)" rec_ rr) true (rec_ <= rr)

let test_dnc_budget () =
  let r = grun ~max_cycles:500 (Tprog.fork_join_sum ~workers:8 ()) in
  checkb "dnc" true r.Exec.State.dnc

let test_rol_drains () =
  let r = grun (Tprog.atomic_adds ~workers:4 ~iters:10 ()) in
  check "rol high-water positive" 1
    (min 1 (Sim.Stats.get r.Exec.State.run_stats "gprs.rol_depth"));
  (* Completion requires full retirement, so retired = created. *)
  check "retired all"
    (Sim.Stats.get r.Exec.State.run_stats "gprs.subthreads")
    (Sim.Stats.get r.Exec.State.run_stats "gprs.retired")

let test_fork_cheap_under_gprs () =
  (* DEX intercepts thread creation: many tiny threads must not pay the
     OS thread-creation cost, so GPRS beats the baseline here. *)
  let p = Tprog.fork_join_sum ~work:2_000 ~workers:16 () in
  let b = Exec.Baseline.run { Exec.Baseline.default_config with n_contexts = 4 } p in
  let g = grun p in
  check "same result" (mem0 b) (mem0 g);
  checkb
    (Printf.sprintf "gprs faster (%d vs %d)" g.Exec.State.sim_cycles
       b.Exec.State.sim_cycles)
    true
    (g.Exec.State.sim_cycles < b.Exec.State.sim_cycles)

(* --- the typed event ring ----------------------------------------------- *)

let ring_run ?(n_contexts = 4) ring =
  Gprs.Engine.run ~events:ring
    { Gprs.Engine.default_config with n_contexts }
    (Tprog.locked_counter ~workers:4 ~iters:5 ())

let test_ring_off_by_default () =
  let ring = Gprs.Event_ring.create () in
  checkb "created off" false (Gprs.Event_ring.enabled ring);
  Gprs.Event_ring.park ring ~at:1 ~tid:0 Vm.Isa.Exit ~pc:0;
  Gprs.Event_ring.fill ring ~at:2 ~ctx:0 ~tid:0 Vm.Tcb.Runnable;
  check "records nothing" 0 (Gprs.Event_ring.recorded ring);
  check "holds nothing" 0 (List.length (Gprs.Event_ring.to_list ring))

let test_ring_disabled_run () =
  let off = Gprs.Event_ring.create () in
  let r = ring_run off in
  check "count" 20 (mem0 r);
  check "a disabled ring records nothing" 0 (Gprs.Event_ring.recorded off);
  let on = Gprs.Event_ring.create () in
  Gprs.Event_ring.enable on ~capacity:4096;
  ignore (ring_run on);
  checkb "an enabled ring records the run" true (Gprs.Event_ring.recorded on > 0);
  let has p = List.exists (fun (_, ev) -> p ev) (Gprs.Event_ring.to_list on) in
  checkb "all four sites record" true
    (has (function Gprs.Event_ring.Make_runnable _ -> true | _ -> false)
    && has (function Gprs.Event_ring.Grant _ -> true | _ -> false)
    && has (function Gprs.Event_ring.Park _ -> true | _ -> false)
    && has (function Gprs.Event_ring.Fill _ -> true | _ -> false))

let test_ring_wraps () =
  let ring = Gprs.Event_ring.create () in
  Gprs.Event_ring.enable ring ~capacity:4;
  for pc = 1 to 6 do
    Gprs.Event_ring.park ring ~at:(10 * pc) ~tid:1 Vm.Isa.Exit ~pc
  done;
  check "counts every record" 6 (Gprs.Event_ring.recorded ring);
  Alcotest.(check (list string))
    "keeps the newest 4, oldest first"
    [ "30 park 1 exit pc=3"; "40 park 1 exit pc=4"; "50 park 1 exit pc=5";
      "60 park 1 exit pc=6" ]
    (List.map
       (fun (t, ev) -> Format.asprintf "%d %a" t Gprs.Event_ring.pp_event ev)
       (Gprs.Event_ring.to_list ring));
  (* a run overflows a small ring the same way *)
  Gprs.Event_ring.enable ring ~capacity:8;
  let r = ring_run ring in
  let kept = Gprs.Event_ring.to_list ring in
  check "full" 8 (List.length kept);
  checkb "overflowed" true (Gprs.Event_ring.recorded ring > 8);
  let times = List.map fst kept in
  checkb "in time order, within the run" true
    (List.sort compare times = times
    && List.for_all (fun t -> t <= r.Exec.State.sim_cycles) times)

(* --- counters resolved once, created lazily ------------------------------ *)

let keys (r : Exec.State.run_result) = List.map fst (Sim.Stats.to_assoc r.Exec.State.run_stats)

let test_no_cow_key_under_pthreads () =
  let p = Tprog.locked_counter ~workers:4 ~iters:5 () in
  let b = Exec.Baseline.run { Exec.Baseline.default_config with n_contexts = 4 } p in
  checkb "pthreads: no ckpt.cow_words" false (List.mem "ckpt.cow_words" (keys b));
  checkb "gprs: ckpt.cow_words" true (List.mem "ckpt.cow_words" (keys (grun p)))

let test_no_steals_key_without_steals () =
  let r = ring_run ~n_contexts:1 (Gprs.Event_ring.create ()) in
  check "count" 20 (mem0 r);
  checkb "no gprs.steals" false (List.mem "gprs.steals" (keys r));
  checkb "boundary counters present" true
    (List.for_all
       (fun k -> List.mem k (keys r))
       [ "gprs.subthreads"; "gprs.tokens"; "gprs.sync_parks"; "gprs.retired";
         "gprs.sub_cycles.mean" ])

(* The one sub-thread boundary rule, counted: every sync point a
   fault-free run dispatches either parks for its turn or is a nested
   lock flattened into its critical section. *)
let test_every_sync_point_accounted () =
  Vm.Block.set_profiling true;
  Fun.protect ~finally:(fun () -> Vm.Block.set_profiling false) @@ fun () ->
  List.iter
    (fun workload ->
      let scn =
        {
          Run.id = "";
          workload;
          engine = "gprs";
          ordering = "balance-aware";
          contexts = 8;
          scale = 0.2;
          grain = "default";
          seed = 1;
          rate = 0.0;
          interval = 0.0;
          want_stats = false;
        }
      in
      let p = Run.prepare scn in
      let r = Run.exec ~blocks:p.Run.blocks scn p.Run.program in
      let get k = Sim.Stats.get r.Exec.State.run_stats k in
      let sum keys = List.fold_left (fun acc k -> acc + get k) 0 keys in
      let dispatched =
        sum
          (List.map
             (fun op -> "dispatch." ^ op)
             [ "lock"; "barrier"; "cond_wait"; "cond_signal"; "cond_broadcast";
               "atomic"; "fork"; "join"; "exit" ])
      in
      checkb (workload ^ " completes") false r.Exec.State.dnc;
      check
        (workload ^ ": sync points dispatched = parks + flattened")
        dispatched
        (sum [ "gprs.sync_parks"; "gprs.flattened_locks" ]))
    Workloads.Suite.names

let suite =
  [
    Alcotest.test_case "fork/join" `Quick test_fork_join;
    Alcotest.test_case "fork/join 1 ctx" `Quick test_fork_join_single_context;
    Alcotest.test_case "fork/join round-robin" `Quick test_fork_join_round_robin;
    Alcotest.test_case "mutex counter" `Quick test_mutex_counter;
    Alcotest.test_case "mutex counter round-robin" `Quick test_mutex_counter_round_robin;
    Alcotest.test_case "atomic adds" `Quick test_atomic_adds;
    Alcotest.test_case "barrier" `Quick test_barrier;
    Alcotest.test_case "pipeline balance-aware" `Quick test_pipeline;
    Alcotest.test_case "pipeline round-robin" `Quick test_pipeline_round_robin;
    Alcotest.test_case "pipeline weighted" `Quick test_pipeline_weighted;
    Alcotest.test_case "alloc churn" `Quick test_alloc_churn;
    Alcotest.test_case "nonstd in cpr region" `Quick test_nonstd_region;
    Alcotest.test_case "file io" `Quick test_file_io;
    Alcotest.test_case "sub-threads created+retired" `Quick test_subthreads_created;
    Alcotest.test_case "tokens granted" `Quick test_tokens_granted;
    Alcotest.test_case "determinism same seed" `Quick test_determinism;
    Alcotest.test_case "determinism across seeds" `Quick test_determinism_across_seeds;
    Alcotest.test_case "matches baseline" `Quick test_matches_baseline_everywhere;
    Alcotest.test_case "recorded ordering results" `Quick test_recorded_ordering_results;
    Alcotest.test_case "recorded no token waits" `Quick test_recorded_no_token_waits;
    Alcotest.test_case "recorded cheaper than rr" `Quick test_recorded_cheaper_than_round_robin;
    Alcotest.test_case "dnc budget" `Quick test_dnc_budget;
    Alcotest.test_case "rol drains" `Quick test_rol_drains;
    Alcotest.test_case "every sync point is accounted for" `Quick
      test_every_sync_point_accounted;
    Alcotest.test_case "fork cheap under DEX" `Quick test_fork_cheap_under_gprs;
    Alcotest.test_case "event ring: off by default" `Quick test_ring_off_by_default;
    Alcotest.test_case "event ring: disabled run" `Quick test_ring_disabled_run;
    Alcotest.test_case "event ring: wrap-around" `Quick test_ring_wraps;
    Alcotest.test_case "counters: pthreads has no cow key" `Quick
      test_no_cow_key_under_pthreads;
    Alcotest.test_case "counters: no steals, no key" `Quick
      test_no_steals_key_without_steals;
  ]
