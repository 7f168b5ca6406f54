(* Shared miniature programs used across the engine test suites. Each
   returns a program plus an [expected] description of the final memory
   so every engine can be checked against the same oracle. *)

open Vm.Builder

(* Workers write into private slots; main sums into address 0. *)
let fork_join_sum ?(work = 400_000) ~workers () =
  let worker = proc "worker" in
  work_const worker work (fun env ->
      let i = Vm.Env.get env 0 in
      env.Vm.Env.write (1 + i) ((i + 1) * 10));
  exit_ worker;
  let main = proc "main" in
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
  program ~mem_words:1024 ~n_groups:2 ~entry:"main" [ finish main; finish worker ]

let fork_join_expected workers = workers * (workers + 1) / 2 * 10

(* Threads increment a shared counter under a mutex. *)
let locked_counter ?(work = 50) ~workers ~iters () =
  let worker = proc "worker" in
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      lock_const worker 0;
      work_const worker work (fun env -> env.Vm.Env.write 0 (env.Vm.Env.read 0 + 1));
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

(* Atomic fetch-and-add from several threads, mirrored into address 0. *)
let atomic_adds ~workers ~iters () =
  let worker = proc "worker" in
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      compute worker 200;
      atomic worker ~var:(fun _ -> 0) ~dst:2 (fun ~old _ -> old + 1));
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

(* Barrier-phased writers: phase-0 marks, phase-1 verifies; address 0 is
   an error flag. *)
let barrier_phases ~n () =
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

(* Barnes-hut in miniature: [steps] rounds of two barrier phases. Main
   writes a "tree" word (address 1) from the positions, then barrier 0;
   each worker reads the tree and its own position and writes a force,
   then barrier 1; main folds the forces into the positions. Every phase
   reads what the previous one wrote on another thread, across a
   barrier. Positions at [10, 10 + workers), forces at [40, 40 +
   workers). *)
let barrier_steps ~workers ~steps () =
  let pos = 10 and force = 40 in
  let worker = proc "worker" in
  for_up worker ~reg:2 ~from:(fun _ -> 0) ~until:(fun _ -> steps) (fun () ->
      barrier worker 0;
      work_const worker 20_000 (fun env ->
          let i = Vm.Env.get env 0 in
          let t = env.Vm.Env.read 1 and x = env.Vm.Env.read (pos + i) in
          env.Vm.Env.write (force + i) (((t * 31) + (x * 7) + i) land 0xFFF));
      barrier worker 1);
  exit_ worker;
  let main = proc "main" in
  work_const main 10 (fun env ->
      for i = 0 to workers - 1 do
        env.Vm.Env.write (pos + i) (i + 1)
      done);
  for i = 0 to workers - 1 do
    fork main ~group:1 ~proc:"worker" ~dst:(10 + i) (fun _ -> [| i |])
  done;
  for_up main ~reg:2 ~from:(fun _ -> 0) ~until:(fun _ -> steps) (fun () ->
      work_const main 5_000 (fun env ->
          let acc = ref 0 in
          for i = 0 to workers - 1 do
            acc := ((!acc * 17) + env.Vm.Env.read (pos + i)) land 0xFFFF
          done;
          env.Vm.Env.write 1 !acc);
      barrier main 0;
      barrier main 1;
      work_const main 5_000 (fun env ->
          for i = 0 to workers - 1 do
            env.Vm.Env.write (pos + i)
              ((env.Vm.Env.read (pos + i) + env.Vm.Env.read (force + i)) land 0xFFFF)
          done));
  for i = 0 to workers - 1 do
    join_reg main (10 + i)
  done;
  exit_ main;
  program ~mem_words:256
    ~barrier_parties:[| workers + 1; workers + 1 |]
    ~n_groups:2 ~entry:"main" [ finish main; finish worker ]

(* A 3-stage pipeline in miniature (a tiny Pbzip2): one producer reads
   "blocks" and enqueues into a 4-slot FIFO guarded by mutex 0 / condvars
   0 (not-full) and 1 (not-empty); [consumers] dequeue and add processed
   values into an atomic accumulator mirrored to address 0 at the end.
   FIFO state: addr 100 = count, 101 = head, 102 = tail, 103.. = slots. *)
let pipeline ~blocks ~consumers ?(work_c = 3_000) () =
  let cap = 4 in
  let count = 100 and head = 101 and tail = 102 and slots = 103 in
  let producer = proc "producer" in
  for_up producer ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> blocks) (fun () ->
      lock_const producer 0;
      let top = fresh_label producer in
      let go = fresh_label producer in
      bind producer top;
      work_const producer 5 (fun env -> Vm.Env.set env 2 (env.Vm.Env.read count));
      if_to producer (fun r -> r.(2) < cap) go;
      cond_wait producer ~c:0 ~m:0;
      goto producer top;
      bind producer go;
      work_const producer 20 (fun env ->
          let t = env.Vm.Env.read tail in
          env.Vm.Env.write (slots + t) (Vm.Env.get env 1 + 1);
          env.Vm.Env.write tail ((t + 1) mod cap);
          env.Vm.Env.write count (env.Vm.Env.read count + 1));
      cond_signal producer 1;
      unlock_const producer 0);
  (* poison pills: one -1 per consumer *)
  for_up producer ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> consumers) (fun () ->
      lock_const producer 0;
      let top = fresh_label producer in
      let go = fresh_label producer in
      bind producer top;
      work_const producer 5 (fun env -> Vm.Env.set env 2 (env.Vm.Env.read count));
      if_to producer (fun r -> r.(2) < cap) go;
      cond_wait producer ~c:0 ~m:0;
      goto producer top;
      bind producer go;
      work_const producer 20 (fun env ->
          let t = env.Vm.Env.read tail in
          env.Vm.Env.write (slots + t) (-1);
          env.Vm.Env.write tail ((t + 1) mod cap);
          env.Vm.Env.write count (env.Vm.Env.read count + 1));
      cond_signal producer 1;
      unlock_const producer 0);
  exit_ producer;
  let consumer = proc "consumer" in
  let loop_top = fresh_label consumer in
  let finished = fresh_label consumer in
  bind consumer loop_top;
  lock_const consumer 0;
  let wait_top = fresh_label consumer in
  let go = fresh_label consumer in
  bind consumer wait_top;
  work_const consumer 5 (fun env -> Vm.Env.set env 2 (env.Vm.Env.read count));
  if_to consumer (fun r -> r.(2) > 0) go;
  cond_wait consumer ~c:1 ~m:0;
  goto consumer wait_top;
  bind consumer go;
  work_const consumer 20 (fun env ->
      let h = env.Vm.Env.read head in
      Vm.Env.set env 3 (env.Vm.Env.read (slots + h));
      env.Vm.Env.write head ((h + 1) mod cap);
      env.Vm.Env.write count (env.Vm.Env.read count - 1));
  cond_signal consumer 0;
  unlock_const consumer 0;
  if_to consumer (fun r -> r.(3) < 0) finished;
  work consumer ~cost:(fun _ -> work_c) (fun _ -> ());
  atomic consumer ~var:(fun _ -> 0) ~dst:4 (fun ~old r -> old + (r.(3) * 2));
  goto consumer loop_top;
  bind consumer finished;
  exit_ consumer;
  let main = proc "main" in
  fork main ~group:0 ~proc:"producer" ~dst:10 (fun _ -> [||]);
  for i = 0 to consumers - 1 do
    fork main ~group:1 ~proc:"consumer" ~dst:(11 + i) (fun _ -> [||])
  done;
  join_reg main 10;
  for i = 0 to consumers - 1 do
    join_reg main (11 + i)
  done;
  atomic main ~var:(fun _ -> 0) ~dst:3 (fun ~old _ -> old);
  work_const main 1 (fun env -> env.Vm.Env.write 0 (Vm.Env.get env 3));
  exit_ main;
  program ~mem_words:256 ~n_mutexes:1 ~n_condvars:2 ~n_atomics:1 ~n_groups:2
    ~entry:"main"
    [ finish main; finish producer; finish consumer ]

let pipeline_expected blocks = blocks * (blocks + 1)

(* Allocation-heavy workers: each allocates, fills, sums, frees. *)
let alloc_churn ~workers ~iters () =
  let worker = proc "worker" in
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      alloc worker ~size:(fun _ -> 8) ~dst:2;
      work_const worker 200 (fun env ->
          let a = Vm.Env.get env 2 in
          for i = 0 to 7 do
            env.Vm.Env.write (a + i) (i + 1)
          done;
          let s = ref 0 in
          for i = 0 to 7 do
            s := !s + env.Vm.Env.read (a + i)
          done;
          Vm.Env.set env 3 !s);
      free worker (fun r -> r.(2));
      atomic worker ~var:(fun _ -> 0) ~dst:4 (fun ~old r -> old + r.(3)));
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
  program ~mem_words:65536 ~reserved_words:16 ~n_atomics:1 ~n_groups:2
    ~entry:"main"
    [ finish main; finish worker ]

let alloc_churn_expected workers iters = workers * iters * 36

(* Hybrid-recovery program: non-standard atomics inside a CPR region. *)
let nonstd_region ~workers ~iters () =
  let worker = proc "worker" in
  cpr_begin worker;
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      compute worker 300;
      nonstd_atomic worker ~var:(fun _ -> 0) ~dst:2 (fun ~old _ -> old + 1));
  cpr_end worker;
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

(* File copy-transform through simulated I/O. *)
let file_transform ~n () =
  let input = Array.init n (fun i -> i + 1) in
  let main = proc "main" in
  for_up main ~reg:0 ~from:(fun _ -> 0) ~until:(fun _ -> n) (fun () ->
      work_const main 10 (fun env ->
          let i = Vm.Env.get env 0 in
          let v = env.Vm.Env.file_read 0 ~off:i in
          env.Vm.Env.file_write 1 ~off:i (3 * v)));
  exit_ main;
  program ~mem_words:64 ~entry:"main"
    ~input_files:[ ("in", input) ]
    ~output_files:[ "out" ] [ finish main ]

(* Nested critical sections: "outer" workers take mutex 0 and, inside it,
   mutex 1; "inner" workers contend for mutex 1 alone, so a nested lock
   can queue behind them. Address 0 counts outer sections, address 1
   every mutex-1 section. *)
let nested_locks ~workers ~iters () =
  let bump a env = env.Vm.Env.write a (env.Vm.Env.read a + 1) in
  let outer = proc "outer" in
  for_up outer ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      lock_const outer 0;
      work_const outer 50 (bump 0);
      lock_const outer 1;
      work_const outer 50 (bump 1);
      unlock_const outer 1;
      unlock_const outer 0);
  exit_ outer;
  let inner = proc "inner" in
  for_up inner ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      compute inner 120;
      lock_const inner 1;
      work_const inner 50 (bump 1);
      unlock_const inner 1);
  exit_ inner;
  let main = proc "main" in
  for i = 0 to (2 * workers) - 1 do
    let body = if i mod 2 = 0 then "outer" else "inner" in
    fork main ~group:1 ~proc:body ~dst:(10 + i) (fun _ -> [||])
  done;
  for i = 0 to (2 * workers) - 1 do
    join_reg main (10 + i)
  done;
  exit_ main;
  program ~mem_words:64 ~n_mutexes:2 ~n_groups:2 ~entry:"main"
    [ finish main; finish outer; finish inner ]

(* [locked_counter] with each worker's loop inside a hybrid-recovery
   region, so every lock is taken between [Cpr_begin] and [Cpr_end]. *)
let locked_region ~workers ~iters () =
  let worker = proc "worker" in
  cpr_begin worker;
  for_up worker ~reg:1 ~from:(fun _ -> 0) ~until:(fun _ -> iters) (fun () ->
      compute worker 200;
      lock_const worker 0;
      work_const worker 50 (fun env -> env.Vm.Env.write 0 (env.Vm.Env.read 0 + 1));
      unlock_const worker 0);
  cpr_end worker;
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
