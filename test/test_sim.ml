(* Unit tests for the discrete-event kernel. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_prng_deterministic () =
  let a = Sim.Prng.create 42 and b = Sim.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Prng.int64 a) (Sim.Prng.int64 b)
  done

let test_prng_distinct_seeds () =
  let a = Sim.Prng.create 1 and b = Sim.Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Sim.Prng.int64 a = Sim.Prng.int64 b then incr same
  done;
  checkb "streams differ" true (!same < 4)

let test_prng_int_bounds () =
  let g = Sim.Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Sim.Prng.int g 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_prng_split_independent () =
  let g = Sim.Prng.create 5 in
  let s = Sim.Prng.split g in
  (* Drawing from the split stream must not perturb the parent's future. *)
  let g' = Sim.Prng.copy g in
  for _ = 1 to 10 do
    ignore (Sim.Prng.int64 s)
  done;
  Alcotest.(check int64) "parent unperturbed" (Sim.Prng.int64 g') (Sim.Prng.int64 g)

let test_prng_float_bounds () =
  let g = Sim.Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Sim.Prng.float g 3.5 in
    checkb "in range" true (v >= 0.0 && v < 3.5)
  done

let test_prng_exponential_mean () =
  let g = Sim.Prng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Prng.exponential g ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 2.0" true (mean > 1.9 && mean < 2.1)

let test_prng_shuffle_permutes () =
  let g = Sim.Prng.create 3 in
  let a = Array.init 50 Fun.id in
  Sim.Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_evq_order () =
  let q = Sim.Event_queue.create () in
  ignore (Sim.Event_queue.schedule q ~time:30 "c");
  ignore (Sim.Event_queue.schedule q ~time:10 "a");
  ignore (Sim.Event_queue.schedule q ~time:20 "b");
  let pop () = Option.get (Sim.Event_queue.pop q) in
  Alcotest.(check (pair int string)) "first" (10, "a") (pop ());
  Alcotest.(check (pair int string)) "second" (20, "b") (pop ());
  Alcotest.(check (pair int string)) "third" (30, "c") (pop ())

let test_evq_fifo_ties () =
  let q = Sim.Event_queue.create () in
  for i = 0 to 9 do
    ignore (Sim.Event_queue.schedule q ~time:5 i)
  done;
  for i = 0 to 9 do
    let _, v = Option.get (Sim.Event_queue.pop q) in
    check "insertion order on ties" i v
  done

let test_evq_cancel () =
  let q = Sim.Event_queue.create () in
  let _a = Sim.Event_queue.schedule q ~time:1 "a" in
  let b = Sim.Event_queue.schedule q ~time:2 "b" in
  let _c = Sim.Event_queue.schedule q ~time:3 "c" in
  Sim.Event_queue.cancel q b;
  check "live count" 2 (Sim.Event_queue.length q);
  let _, v1 = Option.get (Sim.Event_queue.pop q) in
  let _, v2 = Option.get (Sim.Event_queue.pop q) in
  Alcotest.(check (list string)) "b skipped" [ "a"; "c" ] [ v1; v2 ];
  checkb "empty" true (Sim.Event_queue.is_empty q)

let test_evq_cancel_after_pop_noop () =
  let q = Sim.Event_queue.create () in
  let a = Sim.Event_queue.schedule q ~time:1 "a" in
  ignore (Sim.Event_queue.pop q);
  Sim.Event_queue.cancel q a;
  check "still zero live" 0 (Sim.Event_queue.length q);
  (* A stale handle whose cell was recycled, and [no_handle], cancel
     nothing: P-CPR cancels every context's latest tick handle. *)
  ignore (Sim.Event_queue.schedule q ~time:2 "b");
  Sim.Event_queue.cancel q a;
  Sim.Event_queue.cancel q Sim.Event_queue.no_handle;
  check "recycled occupant still live" 1 (Sim.Event_queue.length q)

let test_evq_clock_advances () =
  let q = Sim.Event_queue.create () in
  ignore (Sim.Event_queue.schedule q ~time:100 ());
  ignore (Sim.Event_queue.pop q);
  check "clock" 100 (Sim.Event_queue.now q);
  ignore (Sim.Event_queue.schedule q ~time:250 ());
  ignore (Sim.Event_queue.pop q);
  check "clock again" 250 (Sim.Event_queue.now q)

let test_evq_peek () =
  let q = Sim.Event_queue.create () in
  let a = Sim.Event_queue.schedule q ~time:4 "a" in
  ignore (Sim.Event_queue.schedule q ~time:9 "b");
  Alcotest.(check (option int)) "peek" (Some 4) (Sim.Event_queue.peek_time q);
  Sim.Event_queue.cancel q a;
  Alcotest.(check (option int)) "peek skips cancelled" (Some 9)
    (Sim.Event_queue.peek_time q)

let test_evq_many_random () =
  (* Heap property under load: popping yields non-decreasing times. *)
  let g = Sim.Prng.create 99 in
  let q = Sim.Event_queue.create () in
  for _ = 1 to 2000 do
    ignore (Sim.Event_queue.schedule q ~time:(Sim.Prng.int g 100000) ())
  done;
  let prev = ref (-1) in
  let rec drain () =
    match Sim.Event_queue.pop q with
    | None -> ()
    | Some (t, ()) ->
      checkb "non-decreasing" true (t >= !prev);
      prev := t;
      drain ()
  in
  drain ()

let test_evq_compaction_reclaims () =
  (* Mass cancellation must not leave the heap full of dead cells. *)
  let q = Sim.Event_queue.create () in
  let handles = Array.init 4096 (fun i -> Sim.Event_queue.schedule q ~time:i i) in
  for i = 0 to 4095 do
    if i mod 64 <> 0 then Sim.Event_queue.cancel q handles.(i)
  done;
  check "live count" 64 (Sim.Event_queue.length q);
  checkb "heap compacted" true (Sim.Event_queue.heap_size q < 256);
  let rec drain acc =
    match Sim.Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int))
    "survivors pop in order"
    (List.init 64 (fun k -> k * 64))
    (drain [])

let test_evq_live_size_invariant () =
  (* Random schedule/cancel/pop/peek interleavings: the model of live
     events always matches [length], [length <= heap_size], pops only
     yield uncancelled events in time order, and peek agrees with the
     model's minimum. *)
  let g = Sim.Prng.create 17 in
  let q = Sim.Event_queue.create () in
  let pending = ref [] in
  (* (handle, id, time) *)
  let next_id = ref 0 in
  let last_time = ref (-1) in
  for _ = 1 to 5000 do
    let r = Sim.Prng.int g 100 in
    (if r < 55 then begin
       let t = Sim.Event_queue.now q + Sim.Prng.int g 50 in
       let id = !next_id in
       incr next_id;
       let h = Sim.Event_queue.schedule q ~time:t id in
       pending := !pending @ [ (h, id, t) ]
     end
     else if r < 85 then begin
       match !pending with
       | [] -> ()
       | l ->
         let i = Sim.Prng.int g (List.length l) in
         let h, _, _ = List.nth l i in
         Sim.Event_queue.cancel q h;
         pending := List.filteri (fun j _ -> j <> i) l
     end
     else if r < 95 then begin
       match Sim.Event_queue.pop q with
       | None -> check "pop empty iff model empty" 0 (List.length !pending)
       | Some (t, id) ->
         checkb "pop was pending" true
           (List.exists (fun (_, id', _) -> id' = id) !pending);
         checkb "times non-decreasing" true (t >= !last_time);
         last_time := t;
         let mn =
           List.fold_left (fun acc (_, _, t') -> min acc t') max_int !pending
         in
         check "pop yields earliest" mn t;
         pending := List.filter (fun (_, id', _) -> id' <> id) !pending
     end
     else begin
       let expect =
         match !pending with
         | [] -> None
         | l -> Some (List.fold_left (fun acc (_, _, t) -> min acc t) max_int l)
       in
       Alcotest.(check (option int)) "peek agrees with model" expect
         (Sim.Event_queue.peek_time q)
     end);
    check "length tracks model" (List.length !pending) (Sim.Event_queue.length q);
    checkb "live <= heap cells" true
      (Sim.Event_queue.length q <= Sim.Event_queue.heap_size q)
  done

let test_stats_counters () =
  let s = Sim.Stats.create () in
  Sim.Stats.incr s "a";
  Sim.Stats.incr s "a";
  Sim.Stats.add s "a" 3;
  check "counter" 5 (Sim.Stats.get s "a");
  check "untouched" 0 (Sim.Stats.get s "zzz")

let test_stats_max_and_mean () =
  let s = Sim.Stats.create () in
  Sim.Stats.set_max s "m" 4;
  Sim.Stats.set_max s "m" 9;
  Sim.Stats.set_max s "m" 2;
  check "max" 9 (Sim.Stats.get s "m");
  Sim.Stats.observe s "x" 1.0;
  Sim.Stats.observe s "x" 3.0;
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Sim.Stats.mean s "x");
  check "count" 2 (Sim.Stats.count s "x")

(* Resolving a handle creates nothing; the key appears at the first bump
   and the handle then shares the table's cell. *)
let test_stats_handles_lazy () =
  let s = Sim.Stats.create () in
  let h = Sim.Stats.handle s "h" and sp = Sim.Stats.sampler s "sp" in
  Alcotest.(check (list string)) "no keys" [] (List.map fst (Sim.Stats.to_assoc s));
  Sim.Stats.bump h;
  Sim.Stats.add s "h" 10;
  Sim.Stats.bump h;
  Sim.Stats.sample sp 2.0;
  Sim.Stats.sample sp 4.0;
  check "bumped" 12 (Sim.Stats.get s "h");
  check "samples" 2 (Sim.Stats.count s "sp");
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Sim.Stats.mean s "sp");
  (* a handle resolved after the key exists shares its cell *)
  Sim.Stats.bump (Sim.Stats.handle s "h");
  check "shared cell" 13 (Sim.Stats.get s "h")

let test_time_conversions () =
  let c = Sim.Time.of_seconds ~cycles_per_second:1000 2.5 in
  check "of_seconds" 2500 c;
  Alcotest.(check (float 1e-9))
    "roundtrip" 2.5
    (Sim.Time.to_seconds ~cycles_per_second:1000 c);
  check "tiny positive rounds to >= 1" 1
    (Sim.Time.of_seconds ~cycles_per_second:1000 0.0001)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng distinct seeds" `Quick test_prng_distinct_seeds;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng split independent" `Quick test_prng_split_independent;
    Alcotest.test_case "prng float bounds" `Quick test_prng_float_bounds;
    Alcotest.test_case "prng exponential mean" `Quick test_prng_exponential_mean;
    Alcotest.test_case "prng shuffle permutes" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "evq ordering" `Quick test_evq_order;
    Alcotest.test_case "evq fifo on ties" `Quick test_evq_fifo_ties;
    Alcotest.test_case "evq cancel" `Quick test_evq_cancel;
    Alcotest.test_case "evq cancel after pop" `Quick test_evq_cancel_after_pop_noop;
    Alcotest.test_case "evq clock" `Quick test_evq_clock_advances;
    Alcotest.test_case "evq peek" `Quick test_evq_peek;
    Alcotest.test_case "evq random load" `Quick test_evq_many_random;
    Alcotest.test_case "evq compaction reclaims" `Quick test_evq_compaction_reclaims;
    Alcotest.test_case "evq live/size invariant" `Quick test_evq_live_size_invariant;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
    Alcotest.test_case "stats max/mean" `Quick test_stats_max_and_mean;
    Alcotest.test_case "stats handles are lazy" `Quick test_stats_handles_lazy;
    Alcotest.test_case "time conversions" `Quick test_time_conversions;
  ]
