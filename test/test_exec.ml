(* Baseline (Pthreads) executor tests: whole small programs run on the
   simulated machine, checking results, synchronization semantics, cost
   accounting and determinism. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let run ?(n_contexts = 4) ?(seed = 1) ?max_cycles program =
  Exec.Baseline.run
    { Exec.Baseline.default_config with n_contexts; seed; max_cycles }
    program

(* A program where [workers] threads each add their tid-derived value into
   a private slot; main sums the slots. Result lands at address 0. *)
let fork_join_sum ~workers =
  let open Vm.Builder in
  let worker = proc "worker" in
  (* r0 = slot index *)
  work_const worker 400_000 (fun env ->
      let i = Vm.Env.get env 0 in
      env.Vm.Env.write (1 + i) ((i + 1) * 10));
  exit_ worker;
  let main = proc "main" in
  (* Fork workers, storing tids in r10+i. *)
  for i = 0 to workers - 1 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [| i |])
  done;
  for i = 0 to workers - 1 do
    join_reg main (10 + i)
  done;
  work_const main 100 (fun env ->
      let sum = ref 0 in
      for i = 0 to workers - 1 do
        sum := !sum + env.Vm.Env.read (1 + i)
      done;
      env.Vm.Env.write 0 !sum);
  exit_ main;
  program ~mem_words:1024 ~n_groups:2 ~entry:"main"
    [ finish main; finish worker ]

let expected_sum workers = workers * (workers + 1) / 2 * 10

let test_fork_join_sum () =
  let r = run (fork_join_sum ~workers:8) in
  checkb "completed" false r.Exec.State.dnc;
  check "sum" (expected_sum 8) (Vm.Mem.read r.Exec.State.final_mem 0)

let test_fork_join_more_workers_than_contexts () =
  let r = run ~n_contexts:2 (fork_join_sum ~workers:16) in
  check "sum" (expected_sum 16) (Vm.Mem.read r.Exec.State.final_mem 0)

let test_single_context_still_correct () =
  let r = run ~n_contexts:1 (fork_join_sum ~workers:5) in
  check "sum" (expected_sum 5) (Vm.Mem.read r.Exec.State.final_mem 0)

(* Mutual exclusion: [workers] threads increment a shared counter [iters]
   times each under a mutex. Counter at address 0. *)
let locked_counter ~workers ~iters =
  let open Vm.Builder in
  let worker = proc "worker" in
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      lock_const worker 0;
      work_const worker 50 (fun env ->
          env.Vm.Env.write 0 (env.Vm.Env.read 0 + 1));
      unlock_const worker 0);
  exit_ worker;
  let main = proc "main" in
  for i = 0 to workers - 1 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [||])
  done;
  for i = 0 to workers - 1 do
    join_reg main (10 + i)
  done;
  exit_ main;
  program ~mem_words:64 ~n_mutexes:1 ~n_groups:2 ~entry:"main"
    [ finish main; finish worker ]

let test_mutex_counter () =
  let r = run (locked_counter ~workers:6 ~iters:25) in
  check "count" 150 (Vm.Mem.read r.Exec.State.final_mem 0)

(* Barrier phases: each of [n] threads writes phase tags; after the
   barrier each verifies all phase-0 writes are visible. Failures are
   written to an error flag at address 0. *)
let barrier_program ~n =
  let open Vm.Builder in
  let worker = proc "worker" in
  work_const worker 100 (fun env ->
      let i = Vm.Env.get env 0 in
      env.Vm.Env.write (10 + i) 1);
  barrier worker 0;
  work_const worker 100 (fun env ->
      let ok = ref true in
      for j = 0 to n - 1 do
        if env.Vm.Env.read (10 + j) <> 1 then ok := false
      done;
      if not !ok then env.Vm.Env.write 0 1);
  exit_ worker;
  let main = proc "main" in
  for i = 0 to n - 1 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [| i |])
  done;
  for i = 0 to n - 1 do
    join_reg main (10 + i)
  done;
  exit_ main;
  program ~mem_words:256 ~barrier_parties:[| n |] ~n_groups:2 ~entry:"main"
    [ finish main; finish worker ]

let test_barrier_phases () =
  let r = run ~n_contexts:3 (barrier_program ~n:7) in
  check "no ordering violation" 0 (Vm.Mem.read r.Exec.State.final_mem 0)

(* Producer/consumer over a 1-slot mailbox with condvars. Producer sends
   [items] values; consumer accumulates into address 1.
   Address 0 = full flag, address 2 = next value. *)
let prod_cons ~items =
  let open Vm.Builder in
  let producer = proc "producer" in
  for_up producer ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> items) (fun () ->
      lock_const producer 0;
      (* while full, wait on cond 0 *)
      let top = fresh_label producer and done_ = fresh_label producer in
      bind producer top;
      if_to producer (fun _ -> false) done_;
      (* re-check inside Work: copy full flag to r2 *)
      work_const producer 10 (fun env ->
          Vm.Env.set env 2 (env.Vm.Env.read 0));
      let no_wait = fresh_label producer in
      if_to producer (fun regs -> regs.(2) = 0) no_wait;
      cond_wait producer ~c:0 ~m:0;
      goto producer top;
      bind producer no_wait;
      work_const producer 20 (fun env ->
          env.Vm.Env.write 2 (Vm.Env.get env 1 + 1);
          env.Vm.Env.write 0 1);
      cond_signal producer 1;
      unlock_const producer 0;
      bind producer done_);
  exit_ producer;
  let consumer = proc "consumer" in
  for_up consumer ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> items) (fun () ->
      lock_const consumer 0;
      let top = fresh_label consumer in
      bind consumer top;
      work_const consumer 10 (fun env ->
          Vm.Env.set env 2 (env.Vm.Env.read 0));
      let no_wait = fresh_label consumer in
      if_to consumer (fun regs -> regs.(2) = 1) no_wait;
      cond_wait consumer ~c:1 ~m:0;
      goto consumer top;
      bind consumer no_wait;
      work_const consumer 20 (fun env ->
          env.Vm.Env.write 1 (env.Vm.Env.read 1 + env.Vm.Env.read 2);
          env.Vm.Env.write 0 0);
      cond_signal consumer 0;
      unlock_const consumer 0);
  exit_ consumer;
  let main = proc "main" in
  fork main ~group:1 ~proc:"producer" ~dst:10 (fun _ -> [||]);
  fork main ~group:2 ~proc:"consumer" ~dst:11 (fun _ -> [||]);
  join_reg main 10;
  join_reg main 11;
  exit_ main;
  program ~mem_words:64 ~n_mutexes:1 ~n_condvars:2 ~n_groups:3 ~entry:"main"
    [ finish main; finish producer; finish consumer ]

let test_producer_consumer () =
  let items = 20 in
  let r = run ~n_contexts:2 (prod_cons ~items) in
  check "sum of 1..items" (items * (items + 1) / 2)
    (Vm.Mem.read r.Exec.State.final_mem 1)

let test_atomic_rmw () =
  let open Vm.Builder in
  let worker = proc "worker" in
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> 10) (fun () ->
      atomic worker ~var:(fun _ -> 0) ~dst:2 (fun ~old _ -> old + 1));
  exit_ worker;
  let main = proc "main" in
  for i = 0 to 3 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [||])
  done;
  for i = 0 to 3 do
    join_reg main (10 + i)
  done;
  (* copy atomic into memory via a final check thread is overkill; read
     nothing — the atomic array is not in run_result, so mirror to mem. *)
  atomic main ~var:(fun _ -> 0) ~dst:3 (fun ~old _ -> old);
  work_const main 1 (fun env -> env.Vm.Env.write 0 (Vm.Env.get env 3));
  exit_ main;
  let p =
    program ~mem_words:64 ~n_atomics:1 ~n_groups:2 ~entry:"main"
      [ finish main; finish worker ]
  in
  let r = run p in
  check "atomic increments" 40 (Vm.Mem.read r.Exec.State.final_mem 0)

let test_alloc_free_in_threads () =
  let open Vm.Builder in
  let worker = proc "worker" in
  alloc worker ~size:(fun _ -> 16) ~dst:1;
  work_const worker 100 (fun env ->
      let a = Vm.Env.get env 1 in
      for i = 0 to 15 do
        env.Vm.Env.write (a + i) i
      done;
      let s = ref 0 in
      for i = 0 to 15 do
        s := !s + env.Vm.Env.read (a + i)
      done;
      Vm.Env.set env 2 !s);
  free worker (fun regs -> regs.(1));
  atomic worker ~var:(fun _ -> 0) ~dst:3 (fun ~old regs -> old + regs.(2));
  exit_ worker;
  let main = proc "main" in
  for i = 0 to 3 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [||])
  done;
  for i = 0 to 3 do
    join_reg main (10 + i)
  done;
  atomic main ~var:(fun _ -> 0) ~dst:3 (fun ~old _ -> old);
  work_const main 1 (fun env -> env.Vm.Env.write 0 (Vm.Env.get env 3));
  exit_ main;
  let p =
    program ~mem_words:4096 ~n_atomics:1 ~n_groups:2 ~entry:"main"
      [ finish main; finish worker ]
  in
  let r = run p in
  check "sum over allocs" (4 * 120) (Vm.Mem.read r.Exec.State.final_mem 0)

let test_file_io () =
  let open Vm.Builder in
  let main = proc "main" in
  (* copy input file doubled into output file *)
  set_reg main 0 (fun _ -> 0);
  while_ main
    (fun regs -> regs.(0) < 5)
    (fun () ->
      work_const main 10 (fun env ->
          let i = Vm.Env.get env 0 in
          let v = env.Vm.Env.file_read 0 ~off:i in
          env.Vm.Env.file_write 1 ~off:i (2 * v));
      set_reg main 0 (fun regs -> regs.(0) + 1));
  exit_ main;
  let p =
    program ~mem_words:64 ~entry:"main"
      ~input_files:[ ("in", [| 1; 2; 3; 4; 5 |]) ]
      ~output_files:[ "out" ] [ finish main ]
  in
  let r = run p in
  match r.Exec.State.outputs with
  | [ ("out", data) ] -> Alcotest.(check (array int)) "doubled" [| 2; 4; 6; 8; 10 |] data
  | _ -> Alcotest.fail "expected one output file"

(* A program that rewrites its own input file in place and copies the
   new words out. The file store shares a program's input arrays until a
   file's first write, so a second run of the same program value must
   read the original input again on every engine, rollbacks included. *)
let test_input_file_rewrite () =
  let open Vm.Builder in
  let n = 40 in
  let main = proc "main" in
  for_up main ~reg:0 ~from:(fun _ -> 0) ~until:(fun _ -> n) (fun () ->
      work_const main 5_000 (fun env ->
          let i = Vm.Env.get env 0 in
          env.Vm.Env.file_write 0 ~off:i (2 * env.Vm.Env.file_read 0 ~off:i);
          env.Vm.Env.file_write 1 ~off:i (env.Vm.Env.file_read 0 ~off:i + 1)));
  exit_ main;
  let p =
    program ~mem_words:64 ~entry:"main"
      ~input_files:[ ("in", Array.init n (fun i -> i + 1)) ]
      ~output_files:[ "out" ] [ finish main ]
  in
  let want = Array.init n (fun i -> (2 * (i + 1)) + 1) in
  let engines =
    [
      ("pthreads", None, fun () -> run p);
      ( "cpr",
        Some "cpr.rollbacks",
        fun () ->
          Cpr.run
            {
              Cpr.default_config with
              n_contexts = 2;
              checkpoint_interval = 0.002;
              injector = Faults.Injector.config ~seed:1 200.0;
            }
            p );
      ( "gprs",
        Some "gprs.recoveries",
        fun () ->
          Gprs.Engine.run
            {
              Gprs.Engine.default_config with
              n_contexts = 2;
              injector = Faults.Injector.config ~seed:1 200.0;
            }
            p );
    ]
  in
  List.iter
    (fun (name, rolled_back, go) ->
      let r1 = go () in
      let r2 = go () in
      checkb (name ^ " completes") false r1.Exec.State.dnc;
      Option.iter
        (fun stat ->
          checkb (name ^ " rolled back") true
            (Sim.Stats.get r1.Exec.State.run_stats stat > 0))
        rolled_back;
      Alcotest.(check (list (pair string (array int))))
        (name ^ " output") [ ("out", want) ] r1.Exec.State.outputs;
      Alcotest.(check (list (pair string (array int))))
        (name ^ " second run") r1.Exec.State.outputs r2.Exec.State.outputs;
      check (name ^ " same cycles") r1.Exec.State.sim_cycles
        r2.Exec.State.sim_cycles;
      Alcotest.(check (list (pair string (array int))))
        (name ^ " input untouched")
        [ ("in", Array.init n (fun i -> i + 1)) ]
        p.Vm.Isa.input_files)
    engines

let test_deadlock_detected () =
  let open Vm.Builder in
  (* Two threads lock two mutexes in opposite orders with a barrier in
     between to force the interleaving. *)
  let a = proc "a" in
  lock_const a 0;
  barrier a 0;
  lock_const a 1;
  unlock_const a 1;
  unlock_const a 0;
  exit_ a;
  let b = proc "b" in
  lock_const b 1;
  barrier b 0;
  lock_const b 0;
  unlock_const b 0;
  unlock_const b 1;
  exit_ b;
  let main = proc "main" in
  fork main ~group:0 ~proc:"a" ~dst:10 (fun _ -> [||]);
  fork main ~group:0 ~proc:"b" ~dst:11 (fun _ -> [||]);
  join_reg main 10;
  join_reg main 11;
  exit_ main;
  let p =
    program ~mem_words:64 ~n_mutexes:2 ~barrier_parties:[| 2 |] ~entry:"main"
      [ finish main; finish a; finish b ]
  in
  checkb "deadlock raised" true
    (try
       ignore (run p);
       false
     with Exec.State.Deadlock _ -> true)

let test_dnc_budget () =
  let r = run ~max_cycles:500 (fork_join_sum ~workers:8) in
  checkb "flagged dnc" true r.Exec.State.dnc

let test_determinism_same_seed () =
  let r1 = run ~seed:7 (locked_counter ~workers:4 ~iters:10) in
  let r2 = run ~seed:7 (locked_counter ~workers:4 ~iters:10) in
  check "same cycles" r1.Exec.State.sim_cycles r2.Exec.State.sim_cycles;
  check "same instrs"
    (Sim.Stats.get r1.Exec.State.run_stats "instrs")
    (Sim.Stats.get r2.Exec.State.run_stats "instrs")

let test_parallel_speedup () =
  let p = fork_join_sum ~workers:8 in
  let t1 = (run ~n_contexts:1 p).Exec.State.sim_cycles in
  let t8 = (run ~n_contexts:8 p).Exec.State.sim_cycles in
  checkb
    (Printf.sprintf "8 contexts beat 1 (%d vs %d)" t8 t1)
    true
    (t8 * 3 < t1 * 2)

let test_stats_populated () =
  let r = run (fork_join_sum ~workers:4) in
  checkb "instrs counted" true (Sim.Stats.get r.Exec.State.run_stats "instrs" > 0);
  check "threads created" 4 (Sim.Stats.get r.Exec.State.run_stats "threads.created")

let test_cond_broadcast () =
  (* Main broadcasts once all [n] waiters are asleep; all must wake. *)
  let open Vm.Builder in
  let n = 5 in
  let waiter = proc "waiter" in
  lock_const waiter 0;
  work_const waiter 5 (fun env ->
      env.Vm.Env.write 1 (env.Vm.Env.read 1 + 1) (* asleep count *));
  cond_wait waiter ~c:0 ~m:0;
  work_const waiter 5 (fun env -> env.Vm.Env.write 0 (env.Vm.Env.read 0 + 1));
  unlock_const waiter 0;
  exit_ waiter;
  let main = proc "main" in
  for i = 0 to n - 1 do
    fork main ~group:1 ~proc:"waiter" ~dst:(10 + i) (fun _ -> [||])
  done;
  (* wait until all asleep: poll the counter *)
  let top = fresh_label main in
  bind main top;
  lock_const main 0;
  work_const main 5 (fun env -> Vm.Env.set env 2 (env.Vm.Env.read 1));
  unlock_const main 0;
  compute main 500;
  if_to main (fun r -> r.(2) < n) top;
  lock_const main 0;
  cond_broadcast main 0;
  unlock_const main 0;
  for i = 0 to n - 1 do
    join_reg main (10 + i)
  done;
  exit_ main;
  let p =
    program ~mem_words:64 ~n_mutexes:1 ~n_condvars:1 ~n_groups:2 ~entry:"main"
      [ finish main; finish waiter ]
  in
  let r = run ~n_contexts:3 p in
  check "all woken" 5 (Vm.Mem.read r.Exec.State.final_mem 0)

let test_join_already_exited () =
  let open Vm.Builder in
  let w = proc "w" in
  compute w 10;
  exit_ w;
  let main = proc "main" in
  fork main ~group:1 ~proc:"w" ~dst:10 (fun _ -> [||]);
  compute main 1_000_000 (* child exits long before the join *);
  join_reg main 10;
  work_const main 1 (fun env -> env.Vm.Env.write 0 7);
  exit_ main;
  let p = program ~mem_words:64 ~n_groups:2 ~entry:"main" [ finish main; finish w ] in
  check "joined" 7 (Vm.Mem.read (run p).Exec.State.final_mem 0)

let test_multiple_joiners () =
  (* Two threads join the same worker; both must proceed. *)
  let open Vm.Builder in
  let w = proc "w" in
  compute w 50_000;
  exit_ w;
  let j = proc "j" in
  join j (fun r -> r.(0));
  atomic j ~var:(fun _ -> 0) ~dst:2 (fun ~old _ -> old + 1);
  exit_ j;
  let main = proc "main" in
  fork main ~group:1 ~proc:"w" ~dst:10 (fun _ -> [||]);
  fork main ~group:1 ~proc:"j" ~dst:11 (fun r -> [| r.(10) |]);
  fork main ~group:1 ~proc:"j" ~dst:12 (fun r -> [| r.(10) |]);
  join_reg main 11;
  join_reg main 12;
  atomic main ~var:(fun _ -> 0) ~dst:3 (fun ~old _ -> old);
  work_const main 1 (fun env -> env.Vm.Env.write 0 (Vm.Env.get env 3));
  exit_ main;
  let p =
    program ~mem_words:64 ~n_atomics:1 ~n_groups:2 ~entry:"main"
      [ finish main; finish w; finish j ]
  in
  check "both joiners ran" 2 (Vm.Mem.read (run p).Exec.State.final_mem 0)

let test_dynamic_mutex_operand () =
  (* Lock chosen from a register (per-bucket locks). *)
  let open Vm.Builder in
  let w = proc "w" in
  for_up w ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> 12) (fun () ->
      set_reg w 2 (fun r -> r.(1) mod 3);
      lock w (fun r -> r.(2));
      work_const w 20 (fun env ->
          let b = Vm.Env.get env 2 in
          env.Vm.Env.write b (env.Vm.Env.read b + 1));
      unlock w (fun r -> r.(2)));
  exit_ w;
  let main = proc "main" in
  for i = 0 to 2 do
    fork main ~group:1 ~proc:"w" ~dst:(10 + i) (fun _ -> [||])
  done;
  for i = 0 to 2 do
    join_reg main (10 + i)
  done;
  exit_ main;
  let p =
    program ~mem_words:64 ~n_mutexes:3 ~n_groups:2 ~entry:"main"
      [ finish main; finish w ]
  in
  let r = run p in
  List.iter
    (fun b -> check (Printf.sprintf "bucket %d" b) 12 (Vm.Mem.read r.Exec.State.final_mem b))
    [ 0; 1; 2 ]

(* FIFO grant order (see {!Exec.Fifo}): workers arrive at a held mutex in
   a known staggered order; the lock must be granted in exactly that
   order. Each worker records its entry rank at mem[10+rank]. *)
let test_mutex_fifo_grant_order () =
  let open Vm.Builder in
  let n = 5 in
  let w = proc "w" in
  (* stagger arrivals: worker i shows up i*10_000 cycles late *)
  work w ~cost:(fun regs -> 100 + (regs.(0) * 10_000)) (fun _ -> ());
  lock_const w 0;
  work_const w 30_000 (fun env ->
      let rank = env.Vm.Env.read 0 in
      env.Vm.Env.write (10 + rank) (Vm.Env.get env 0);
      env.Vm.Env.write 0 (rank + 1));
  unlock_const w 0;
  exit_ w;
  let main = proc "main" in
  for i = 0 to n - 1 do
    fork main ~group:1 ~proc:"w" ~dst:(10 + i) (fun _ -> [| i |])
  done;
  for i = 0 to n - 1 do
    join_reg main (10 + i)
  done;
  exit_ main;
  let p =
    program ~mem_words:64 ~n_mutexes:1 ~n_groups:2 ~entry:"main"
      [ finish main; finish w ]
  in
  let r = run ~n_contexts:(n + 1) p in
  for i = 0 to n - 1 do
    check
      (Printf.sprintf "grant %d went to worker %d" i i)
      i
      (Vm.Mem.read r.Exec.State.final_mem (10 + i))
  done

(* Condvar sleepers must also wake in FIFO order: workers fall asleep in
   a staggered order, then main signals one at a time; wake rank must
   equal sleep rank for every worker. *)
let test_cond_fifo_wake_order () =
  let open Vm.Builder in
  let n = 4 in
  let w = proc "w" in
  work w ~cost:(fun regs -> 100 + (regs.(0) * 10_000)) (fun _ -> ());
  lock_const w 0;
  work_const w 5 (fun env ->
      let rank = env.Vm.Env.read 0 in
      env.Vm.Env.write (10 + rank) (Vm.Env.get env 0);
      env.Vm.Env.write 0 (rank + 1));
  cond_wait w ~c:0 ~m:0;
  work_const w 5 (fun env ->
      let rank = env.Vm.Env.read 1 in
      env.Vm.Env.write (20 + rank) (Vm.Env.get env 0);
      env.Vm.Env.write 1 (rank + 1));
  unlock_const w 0;
  exit_ w;
  let main = proc "main" in
  for i = 0 to n - 1 do
    fork main ~group:1 ~proc:"w" ~dst:(10 + i) (fun _ -> [| i |])
  done;
  (* wait until all are asleep *)
  let top = fresh_label main in
  bind main top;
  lock_const main 0;
  work_const main 5 (fun env -> Vm.Env.set env 2 (env.Vm.Env.read 0));
  unlock_const main 0;
  compute main 500;
  if_to main (fun r -> r.(2) < n) top;
  (* wake them one at a time, widely spaced *)
  for _ = 1 to n do
    lock_const main 0;
    cond_signal main 0;
    unlock_const main 0;
    compute main 100_000
  done;
  for i = 0 to n - 1 do
    join_reg main (10 + i)
  done;
  exit_ main;
  let p =
    program ~mem_words:64 ~n_mutexes:1 ~n_condvars:1 ~n_groups:2 ~entry:"main"
      [ finish main; finish w ]
  in
  let r = run ~n_contexts:3 p in
  for i = 0 to n - 1 do
    let slept = Vm.Mem.read r.Exec.State.final_mem (10 + i) in
    check (Printf.sprintf "wake %d went to sleeper %d" i slept) slept
      (Vm.Mem.read r.Exec.State.final_mem (20 + i))
  done

let test_implicit_exit_past_end () =
  (* A proc without a trailing Exit terminates implicitly. *)
  let open Vm.Builder in
  let w = proc "w" in
  work_const w 10 (fun env -> env.Vm.Env.write 0 3);
  (* no exit_ *)
  let main = proc "main" in
  fork main ~group:1 ~proc:"w" ~dst:10 (fun _ -> [||]);
  join_reg main 10;
  exit_ main;
  let p = program ~mem_words:64 ~n_groups:2 ~entry:"main" [ finish main; finish w ] in
  check "ran" 3 (Vm.Mem.read (run p).Exec.State.final_mem 0)

(* --- zero contexts ---------------------------------------------------- *)

(* A machine with no context never progresses: every engine refuses it
   up front instead of hanging (CPR's alarms would fire forever) or
   failing deep inside (a division by the context count). *)
let test_zero_contexts_refused () =
  let program () = fork_join_sum ~workers:2 in
  let refused name f =
    match f () with
    | (_ : Exec.State.run_result) -> Alcotest.failf "%s ran with 0 contexts" name
    | exception Invalid_argument _ -> ()
  in
  refused "pthreads" (fun () -> run ~n_contexts:0 (program ()));
  refused "cpr" (fun () ->
      Cpr.run { Cpr.default_config with Cpr.n_contexts = 0 } (program ()));
  refused "gprs" (fun () ->
      Gprs.Engine.run
        { Gprs.Engine.default_config with Gprs.Engine.n_contexts = 0 }
        (program ()))

(* --- control-prefix fetch -------------------------------------------- *)

let fetch_at ?(r0 = 0) ?(in_cpr = false) ?(pc = 0) proc =
  let tcb =
    Vm.Tcb.create ~tid:0 ~group:0 ~proc:(Vm.Builder.finish proc)
      ~args:[| r0 |]
  in
  tcb.Vm.Tcb.pc <- pc;
  tcb.Vm.Tcb.in_cpr_region <- in_cpr;
  (tcb, Exec.Fuse.fetch tcb)

(* The landing [Work]'s cost identifies which one was reached. *)
let landing_cost (pr : Vm.Block.probe) =
  match pr.Vm.Block.p_instr with
  | Vm.Isa.Work { cost; _ } -> cost [||]
  | i -> Alcotest.failf "landed on %s, not work" (Vm.Isa.instr_name i)

let test_fetch_goto_chain () =
  let open Vm.Builder in
  let p = proc "f" in
  let l1 = fresh_label p and l2 = fresh_label p in
  goto p l1;
  compute p 1;
  bind p l1;
  goto p l2;
  compute p 2;
  bind p l2;
  compute p 3;
  let tcb, pr = fetch_at p in
  check "landing" 3 (landing_cost pr);
  check "pc at the landing" 4 tcb.Vm.Tcb.pc;
  check "two control transfers" 2 pr.Vm.Block.p_ctrl

let test_fetch_if () =
  let open Vm.Builder in
  let build () =
    let p = proc "f" in
    let l = fresh_label p in
    if_to p (fun r -> r.(0) = 1) l;
    compute p 1;
    bind p l;
    compute p 2;
    p
  in
  let tcb, pr = fetch_at ~r0:1 (build ()) in
  check "taken lands on the target" 2 (landing_cost pr);
  check "taken pc" 2 tcb.Vm.Tcb.pc;
  let tcb, pr = fetch_at ~r0:0 (build ()) in
  check "not taken falls through" 1 (landing_cost pr);
  check "not taken pc" 1 tcb.Vm.Tcb.pc;
  check "one control transfer" 1 pr.Vm.Block.p_ctrl

let test_fetch_cpr_region () =
  let open Vm.Builder in
  let p = proc "f" in
  cpr_begin p;
  cpr_end p;
  compute p 5;
  let tcb, pr = fetch_at p in
  check "landing" 5 (landing_cost pr);
  checkb "flag ends false" false tcb.Vm.Tcb.in_cpr_region;
  check "ctrl" 2 pr.Vm.Block.p_ctrl

let test_fetch_off_the_end () =
  let open Vm.Builder in
  let p = proc "f" in
  compute p 1;
  cpr_begin p;
  let tcb, pr = fetch_at ~pc:1 p in
  checkb "implicit exit" true (pr.Vm.Block.p_instr = Vm.Isa.Exit);
  check "pc = code length" 2 tcb.Vm.Tcb.pc;
  checkb "flag committed" true tcb.Vm.Tcb.in_cpr_region

let suite =
  [
    Alcotest.test_case "fork/join sum" `Quick test_fork_join_sum;
    Alcotest.test_case "cond broadcast" `Quick test_cond_broadcast;
    Alcotest.test_case "join already exited" `Quick test_join_already_exited;
    Alcotest.test_case "multiple joiners" `Quick test_multiple_joiners;
    Alcotest.test_case "dynamic mutex operand" `Quick test_dynamic_mutex_operand;
    Alcotest.test_case "implicit exit" `Quick test_implicit_exit_past_end;
    Alcotest.test_case "mutex FIFO grant order" `Quick test_mutex_fifo_grant_order;
    Alcotest.test_case "condvar FIFO wake order" `Quick test_cond_fifo_wake_order;
    Alcotest.test_case "oversubscription" `Quick test_fork_join_more_workers_than_contexts;
    Alcotest.test_case "single context" `Quick test_single_context_still_correct;
    Alcotest.test_case "mutex counter" `Quick test_mutex_counter;
    Alcotest.test_case "barrier phases" `Quick test_barrier_phases;
    Alcotest.test_case "producer/consumer condvars" `Quick test_producer_consumer;
    Alcotest.test_case "atomic rmw" `Quick test_atomic_rmw;
    Alcotest.test_case "alloc/free in threads" `Quick test_alloc_free_in_threads;
    Alcotest.test_case "file io" `Quick test_file_io;
    Alcotest.test_case "a run that rewrites its input leaves the program intact"
      `Quick test_input_file_rewrite;
    Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
    Alcotest.test_case "dnc budget" `Quick test_dnc_budget;
    Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
    Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
    Alcotest.test_case "zero contexts refused" `Quick test_zero_contexts_refused;
    Alcotest.test_case "fetch: goto chain" `Quick test_fetch_goto_chain;
    Alcotest.test_case "fetch: if taken and not" `Quick test_fetch_if;
    Alcotest.test_case "fetch: cpr begin/end" `Quick test_fetch_cpr_region;
    Alcotest.test_case "fetch: off the end" `Quick test_fetch_off_the_end;
  ]
