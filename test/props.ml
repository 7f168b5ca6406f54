(* Property-based tests (qcheck) on the core data structures and the
   system-level recovery invariant. *)

let count = 200

let case ?(count = count) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

open QCheck2

(* --- PRNG ---------------------------------------------------------- *)

let prop_prng_bounds =
  case "prng: int always in bounds"
    Gen.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Sim.Prng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Sim.Prng.int g bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_prng_copy_independent =
  case "prng: copy diverges from original only by its own draws"
    Gen.int
    (fun seed ->
      let a = Sim.Prng.create seed in
      let b = Sim.Prng.copy a in
      ignore (Sim.Prng.int64 b);
      (* a's next draw is unaffected by b's *)
      Sim.Prng.int64 a = Sim.Prng.int64 (Sim.Prng.copy (Sim.Prng.create seed)))

(* --- Event queue: model-based against a sorted list ----------------- *)

let prop_evq_sorted =
  case "event queue: pops are time-sorted and complete"
    Gen.(list_size (int_range 1 200) (int_range 0 10_000))
    (fun times ->
      let q = Sim.Event_queue.create () in
      List.iter (fun t -> ignore (Sim.Event_queue.schedule q ~time:t t)) times;
      let rec drain acc =
        match Sim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

let prop_evq_cancel =
  case "event queue: cancelled events never fire"
    Gen.(list_size (int_range 1 100) (pair (int_range 0 1000) bool))
    (fun events ->
      let q = Sim.Event_queue.create () in
      let expected = ref [] in
      List.iter
        (fun (t, keep) ->
          let h = Sim.Event_queue.schedule q ~time:t (t, keep) in
          if keep then expected := t :: !expected
          else Sim.Event_queue.cancel q h)
        events;
      let rec drain acc =
        match Sim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (_, (t, keep)) ->
          if not keep then raise Exit;
          drain (t :: acc)
      in
      match drain [] with
      | popped -> popped = List.sort compare !expected
      | exception Exit -> false)

(* --- Deque: model-based against a list ------------------------------ *)

type dq_op = Push of int | Pop | Steal

let dq_op_gen =
  Gen.(
    frequency
      [ (3, map (fun v -> Push v) int); (2, pure Pop); (2, pure Steal) ])

let prop_deque_model =
  case "deque: matches list model under random ops"
    Gen.(list_size (int_range 1 300) dq_op_gen)
    (fun ops ->
      let d = Sched.Deque.create () in
      let model = ref [] (* front = top/oldest *) in
      List.for_all
        (fun op ->
          match op with
          | Push v ->
            Sched.Deque.push_bottom d v;
            model := !model @ [ v ];
            true
          | Pop -> (
            let got = Sched.Deque.pop_bottom d in
            match List.rev !model with
            | [] -> got = None
            | last :: rest_rev ->
              model := List.rev rest_rev;
              got = Some last)
          | Steal -> (
            let got = Sched.Deque.steal_top d in
            match !model with
            | [] -> got = None
            | first :: rest ->
              model := rest;
              got = Some first))
        ops)

(* --- Waiter FIFO: model-based against a list ------------------------- *)

type fifo_op = FPush of int | FPushFront of int | FPop | FDropOdd

let fifo_op_gen =
  Gen.(
    frequency
      [
        (4, map (fun v -> FPush v) (int_range 0 999));
        (1, map (fun v -> FPushFront v) (int_range 0 999));
        (3, pure FPop);
        (1, pure FDropOdd);
      ])

let prop_fifo_model =
  case "fifo: matches list model under random ops"
    Gen.(list_size (int_range 1 300) fifo_op_gen)
    (fun ops ->
      let q = ref Exec.Fifo.empty in
      let model = ref [] (* head pops first *) in
      List.for_all
        (fun op ->
          match op with
          | FPush v ->
            q := Exec.Fifo.push !q v;
            model := !model @ [ v ];
            true
          | FPushFront v ->
            q := Exec.Fifo.push_front !q v;
            model := v :: !model;
            true
          | FPop -> (
            match (Exec.Fifo.pop !q, !model) with
            | None, [] -> true
            | Some (v, rest), m :: ms ->
              q := rest;
              model := ms;
              v = m
            | _ -> false)
          | FDropOdd ->
            q := Exec.Fifo.filter (fun v -> v mod 2 = 0) !q;
            model := List.filter (fun v -> v mod 2 = 0) !model;
            true)
        ops
      && Exec.Fifo.to_list !q = !model
      && Exec.Fifo.length !q = List.length !model
      && Exec.Fifo.is_empty !q = (!model = [])
      && Exec.Fifo.to_list (Exec.Fifo.of_list !model) = !model)

(* --- Allocator ------------------------------------------------------ *)

let prop_alloc_no_overlap =
  case "allocator: live blocks never overlap"
    Gen.(list_size (int_range 1 60) (int_range 1 32))
    (fun sizes ->
      let m = Vm.Mem.create ~words:8192 in
      let blocks = List.map (fun s -> (Vm.Mem.alloc m s, s)) sizes in
      let sorted = List.sort compare blocks in
      let rec no_overlap = function
        | (a1, s1) :: ((a2, _) :: _ as rest) ->
          a1 + s1 <= a2 && no_overlap rest
        | _ -> true
      in
      no_overlap sorted)

let prop_alloc_free_roundtrip =
  case "allocator: alloc/free/undo round-trips"
    Gen.(list_size (int_range 1 40) (pair (int_range 1 16) bool))
    (fun plan ->
      let m = Vm.Mem.create ~words:4096 in
      let live = ref [] in
      List.iter
        (fun (size, do_free) ->
          let a = Vm.Mem.alloc m size in
          if do_free then Vm.Mem.free m a else live := (a, size) :: !live)
        plan;
      List.for_all
        (fun (a, s) -> Vm.Mem.block_size m a = Some s)
        !live)

let prop_alloc_coalesce =
  case "allocator: frees coalesce — whole arena reallocatable"
    Gen.(pair (list_size (int_range 1 60) (int_range 1 32)) int)
    (fun (sizes, shuffle_seed) ->
      let m = Vm.Mem.create ~words:8192 in
      let blocks = Array.of_list (List.map (fun s -> Vm.Mem.alloc m s) sizes) in
      (* free in a pseudo-random order; adjacency merging must leave a
         single free block regardless *)
      Sim.Prng.shuffle (Sim.Prng.create shuffle_seed) blocks;
      Array.iter (fun a -> Vm.Mem.free m a) blocks;
      Vm.Mem.alloc m 8192 = 0)

(* --- Incremental snapshots: image restore ≡ full-copy model ---------- *)

type img_op = IWrite of int * int | ICapture of int | IRestore of int

let img_op_gen =
  Gen.(
    frequency
      [
        (6, map2 (fun a v -> IWrite (a, v)) (int_range 0 511) (int_range 0 9999));
        (1, map (fun k -> ICapture k) (int_range 0 2));
        (1, map (fun k -> IRestore k) (int_range 0 2));
      ])

let prop_mem_image_equiv =
  case "mem: restore(incremental image) ≡ restore(full copy)"
    Gen.(list_size (int_range 1 300) img_op_gen)
    (fun ops ->
      let m = Vm.Mem.create ~words:512 in
      let imgs = Array.init 3 (fun _ -> Vm.Mem.alloc_image m) in
      (* The model: the words, and each image's words at its last
         capture (a never-synced image restores zeros). *)
      let model = Array.make 512 0 in
      let saved = Array.init 3 (fun _ -> Array.make 512 0) in
      List.for_all
        (fun op ->
          match op with
          | IWrite (a, v) ->
            Vm.Mem.write m a v;
            model.(a) <- v;
            true
          | ICapture k ->
            ignore (Vm.Mem.capture m imgs.(k));
            Array.blit model 0 saved.(k) 0 512;
            true
          | IRestore k ->
            ignore (Vm.Mem.restore_image m imgs.(k));
            Array.blit saved.(k) 0 model 0 512;
            Array.init 512 (Vm.Mem.read m) = model)
        ops)

(* Per-page images against the flat-copy model: a memory with a short
   last page, zero writes (a page written only with zeros is still
   dirty), and captures into and restores from two recycled images, the
   model's words and both returned counts checked after every step. *)
let prop_mem_image_model =
  let words = 300 in
  case "mem: page images equal the flat-copy model"
    Gen.(
      list_size (int_range 1 300)
        (frequency
           [
             ( 6,
               map2
                 (fun a v -> IWrite (a, v))
                 (oneof [ int_range 0 (words - 1); int_range 256 (words - 1) ])
                 (oneof [ pure 0; int_range 1 9999 ]) );
             (1, map (fun k -> ICapture k) (int_range 0 1));
             (1, map (fun k -> IRestore k) (int_range 0 1));
           ]))
    (fun ops ->
      let m = Vm.Mem.create ~words and r = Ref_models.Mem_image.create ~words in
      let imgs = Array.init 2 (fun _ -> Vm.Mem.alloc_image m) in
      let rimgs = Array.init 2 (fun _ -> Ref_models.Mem_image.alloc_image r) in
      List.for_all
        (fun op ->
          let counts_agree =
            match op with
            | IWrite (a, v) ->
              Vm.Mem.write m a v;
              Ref_models.Mem_image.write r a v;
              true
            | ICapture k ->
              Vm.Mem.capture m imgs.(k)
              = Ref_models.Mem_image.capture r rimgs.(k)
            | IRestore k ->
              Vm.Mem.restore_image m imgs.(k)
              = Ref_models.Mem_image.restore_image r rimgs.(k)
          in
          counts_agree
          && Array.init words (Vm.Mem.read m)
             = Array.init words (Ref_models.Mem_image.read r))
        ops)

(* --- Undo log: random writes restore exactly ------------------------ *)

let prop_undo_restores =
  case "undo log: replay restores the pre-state exactly"
    Gen.(list_size (int_range 1 200) (pair (int_range 0 255) (int_range 0 1000)))
    (fun writes ->
      let m = Vm.Mem.create ~words:256 in
      (* scatter an initial state *)
      List.iteri (fun i (a, _) -> Vm.Mem.write m a (i * 7)) writes;
      let initial = Array.init 256 (Vm.Mem.read m) in
      let log = Exec.Undo_log.create () in
      List.iter
        (fun (a, v) ->
          ignore (Exec.Undo_log.note log (Exec.Undo_log.K_mem a) ~old:(Vm.Mem.read m a));
          Vm.Mem.write m a v)
        writes;
      ignore
        (Exec.Undo_log.replay ~mem:m ~atomics:[||] ~io:(Vm.Io.create ()) log);
      Array.for_all2 ( = ) initial (Array.init 256 (Vm.Mem.read m)))

let prop_paged_undo_equiv =
  case "undo log: paged variant counts and restores like the entry log"
    Gen.(list_size (int_range 1 200) (pair (int_range 0 255) (int_range 0 1000)))
    (fun writes ->
      let m = Vm.Mem.create ~words:256 in
      List.iteri (fun i (a, _) -> Vm.Mem.write m a (i * 7)) writes;
      let img = Vm.Mem.alloc_image m in
      ignore (Vm.Mem.capture m img);
      let initial = Array.init 256 (Vm.Mem.read m) in
      let paged = Exec.Undo_log.create ~paged:m () in
      let plain = Exec.Undo_log.create () in
      List.iter
        (fun (a, v) ->
          let old = Vm.Mem.read m a in
          ignore (Exec.Undo_log.note paged (Exec.Undo_log.K_mem a) ~old);
          ignore (Exec.Undo_log.note plain (Exec.Undo_log.K_mem a) ~old);
          Vm.Mem.write m a v)
        writes;
      let same_size = Exec.Undo_log.size paged = Exec.Undo_log.size plain in
      let replayed =
        Exec.Undo_log.replay ~mem:m ~atomics:[||] ~io:(Vm.Io.create ()) paged
      in
      ignore (Vm.Mem.restore_image m img);
      same_size
      && replayed = Exec.Undo_log.size plain
      && Array.for_all2 ( = ) initial (Array.init 256 (Vm.Mem.read m)))

(* --- ROL ------------------------------------------------------------ *)

let prop_rol_head_is_min =
  case "rol: head is always the minimum live id"
    Gen.(list_size (int_range 1 100) (int_range 0 999))
    (fun ids ->
      let ids = List.sort_uniq compare ids in
      let rol = Gprs.Rol.create () in
      let dummy_saved =
        Vm.Tcb.copy_state
          (Vm.Tcb.create ~tid:0 ~group:0
             ~proc:{ Vm.Isa.pname = "p"; code = [| Vm.Isa.Exit |] }
             ~args:[||])
      in
      List.iter
        (fun id ->
          Gprs.Rol.insert rol (Gprs.Subthread.make ~id ~tid:0 ~now:0 ~saved:dummy_saved))
        ids;
      (* remove a deterministic subset *)
      let kept = List.filteri (fun i _ -> i mod 3 <> 0) ids in
      List.iteri (fun i id -> if i mod 3 = 0 then Gprs.Rol.remove rol id) ids;
      match (Gprs.Rol.head rol, kept) with
      | None, [] -> true
      | Some h, k :: _ -> h.Gprs.Subthread.id = k
      | _ -> false)

let prop_rol_retire_prefix =
  case "rol: retire pops exactly the completed aged prefix"
    Gen.(list_size (int_range 1 60) bool)
    (fun completions ->
      let rol = Gprs.Rol.create () in
      let dummy_saved =
        Vm.Tcb.copy_state
          (Vm.Tcb.create ~tid:0 ~group:0
             ~proc:{ Vm.Isa.pname = "p"; code = [| Vm.Isa.Exit |] }
             ~args:[||])
      in
      List.iteri
        (fun id complete ->
          let sub = Gprs.Subthread.make ~id ~tid:0 ~now:0 ~saved:dummy_saved in
          if complete then sub.Gprs.Subthread.status <- Gprs.Subthread.Complete 10;
          Gprs.Rol.insert rol sub)
        completions;
      let retired = Gprs.Rol.retire_ready rol ~now:1000 ~latency:100 in
      let expected_prefix =
        let rec count = function true :: rest -> 1 + count rest | _ -> 0 in
        count completions
      in
      List.length retired = expected_prefix)

(* --- Order policies -------------------------------------------------- *)

let prop_order_grants_eligible =
  case "order: the holder is always live and eligible"
    Gen.(
      pair (int_range 1 10)
        (list_size (int_range 1 80) (pair (int_range 0 9) bool)))
    (fun (n_threads, toggles) ->
      let t = Gprs.Order.create Gprs.Order.Round_robin ~group_weights:[| 1 |] in
      for tid = 0 to n_threads - 1 do
        Gprs.Order.add_thread t ~tid ~group:0
      done;
      List.for_all
        (fun (tid, elig) ->
          Gprs.Order.set_eligible t (tid mod n_threads) elig;
          match Gprs.Order.holder t with
          | None -> true
          | Some h ->
            Gprs.Order.is_eligible t h
            &&
            (Gprs.Order.advance t ~granted:h;
             true))
        toggles)

let prop_order_fair =
  case "order: every eligible thread is granted within one rotation"
    (Gen.int_range 2 12)
    (fun n ->
      let t = Gprs.Order.create Gprs.Order.Round_robin ~group_weights:[| 1 |] in
      for tid = 0 to n - 1 do
        Gprs.Order.add_thread t ~tid ~group:0
      done;
      let seen = Array.make n false in
      for _ = 1 to n do
        match Gprs.Order.holder t with
        | Some h ->
          seen.(h) <- true;
          Gprs.Order.advance t ~granted:h
        | None -> ()
      done;
      Array.for_all Fun.id seen)

(* --- chunk_bounds ----------------------------------------------------- *)

let prop_chunks_partition =
  case "chunk_bounds: chunks partition the range"
    Gen.(pair (int_range 0 10_000) (int_range 1 64))
    (fun (total, parts) ->
      let ranges = List.init parts (Workloads.Workload.chunk_bounds ~total ~parts) in
      let covered = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges in
      let contiguous =
        let rec go prev = function
          | [] -> true
          | (lo, hi) :: rest -> lo = prev && hi >= lo && go hi rest
        in
        go 0 ranges
      in
      covered = total && contiguous)

(* --- Weighted order: turn-share matches weights ----------------------- *)

let prop_weighted_turn_share =
  case ~count:50 "order: weighted group gets its share of turns"
    Gen.(pair (int_range 1 4) (int_range 1 4))
    (fun (w0, w1) ->
      let t = Gprs.Order.create Gprs.Order.Weighted ~group_weights:[| w0; w1 |] in
      Gprs.Order.add_thread t ~tid:0 ~group:0;
      Gprs.Order.add_thread t ~tid:1 ~group:1;
      let turns0 = ref 0 and turns1 = ref 0 in
      let cycles = 12 in
      for _ = 1 to cycles * (w0 + w1) do
        match Gprs.Order.holder t with
        | Some 0 ->
          incr turns0;
          Gprs.Order.advance t ~granted:0
        | Some 1 ->
          incr turns1;
          Gprs.Order.advance t ~granted:1
        | Some _ | None -> ()
      done;
      !turns0 = cycles * w0 && !turns1 = cycles * w1)

(* --- Scheduler conservation ------------------------------------------ *)

let prop_scheduler_conservation =
  case "scheduler: every enqueued item is taken exactly once"
    Gen.(
      pair (int_range 1 8)
        (list_size (int_range 1 200) (pair (int_range 0 7) (int_range 0 10_000))))
    (fun (n_ctx, items) ->
      let s = Sched.Scheduler.create ~n_contexts:n_ctx in
      List.iteri
        (fun i (hint, _) -> Sched.Scheduler.enqueue s ~ctx_hint:hint (i + 1))
        items;
      let taken = Hashtbl.create 64 in
      let rec drain ctx =
        match Sched.Scheduler.take s ~ctx with
        | Some (x, _) ->
          if Hashtbl.mem taken x then raise Exit;
          Hashtbl.add taken x ();
          drain ((ctx + 1) mod n_ctx)
        | None -> ()
      in
      (match drain 0 with () -> () | exception Exit -> ());
      Hashtbl.length taken = List.length items && Sched.Scheduler.is_empty s)

(* --- Barrier phases ---------------------------------------------------- *)

let prop_barrier_phases =
  case ~count:40 "barriers: clean runs verify phases"
    Gen.(pair (int_range 2 6) (int_range 1 4))
    (fun (n, _steps) ->
      let p = Tprog.barrier_phases ~n () in
      let r =
        Gprs.Engine.run { Gprs.Engine.default_config with n_contexts = 3 } p
      in
      (not r.Exec.State.dnc) && Vm.Mem.read r.Exec.State.final_mem 0 = 0)

(* --- GPRS-lint: well-formed programs pass, mutations fail ------------- *)

(* Straight-line single-proc programs assembled from three well-formed
   segment shapes: pure compute, a balanced lock/compute/unlock critical
   section, and a CPR region wrapping a non-standard atomic. Every
   generated program gets at least one critical section and one region
   appended so the mutation property always has something to break. *)
type lint_seg = LCompute of int | LLocked of int * int | LRegion of int

let lint_segs_gen =
  Gen.(
    map
      (fun segs -> segs @ [ LLocked (0, 5); LRegion 5 ])
      (list_size (int_range 0 12)
         (frequency
            [
              (2, map (fun c -> LCompute (c + 1)) (int_range 0 50));
              ( 3,
                map2
                  (fun m c -> LLocked (m, c + 1))
                  (int_range 0 3) (int_range 0 50) );
              (2, map (fun c -> LRegion (c + 1)) (int_range 0 50));
            ])))

let build_lint_prog segs =
  let open Vm.Builder in
  let m = proc "main" in
  List.iter
    (function
      | LCompute c -> compute m c
      | LLocked (mu, c) ->
        lock_const m mu;
        compute m c;
        unlock_const m mu
      | LRegion c ->
        cpr_begin m;
        compute m c;
        nonstd_atomic m ~var:(fun _ -> 0) ~dst:1 (fun ~old _ -> old + 1);
        cpr_end m)
    segs;
  exit_ m;
  program ~n_mutexes:4 ~n_atomics:1 ~entry:"main" [ finish m ]

let prop_lint_wellformed_clean =
  case ~count:100 "lint: well-formed builder programs have no errors"
    lint_segs_gen
    (fun segs -> not (Lint.Check.has_errors (Lint.Check.program (build_lint_prog segs))))

let prop_lint_mutation_caught =
  case ~count:100 "lint: dropping an unlock or cpr_end is always an error"
    Gen.(pair lint_segs_gen (int_range 0 1_000_000))
    (fun (segs, pick) ->
      let p = build_lint_prog segs in
      let main = List.assoc "main" p.Vm.Isa.procs in
      let droppable =
        List.filteri (fun _ i ->
            match i with Vm.Isa.Unlock _ | Vm.Isa.Cpr_end -> true | _ -> false)
          (Array.to_list main.Vm.Isa.code)
        |> List.length
      in
      let victim_idx =
        (* index (among code positions) of the (pick mod droppable)-th
           Unlock/Cpr_end instruction *)
        let target = pick mod droppable in
        let n = ref (-1) in
        let found = ref (-1) in
        Array.iteri
          (fun i instr ->
            match instr with
            | Vm.Isa.Unlock _ | Vm.Isa.Cpr_end ->
              incr n;
              if !n = target then found := i
            | _ -> ())
          main.Vm.Isa.code;
        !found
      in
      let code = Array.copy main.Vm.Isa.code in
      code.(victim_idx) <-
        Vm.Isa.Work { cost = (fun _ -> 0); run = (fun _ -> ()) };
      let mutated =
        {
          p with
          Vm.Isa.procs =
            [ ("main", { main with Vm.Isa.code }) ];
        }
      in
      Lint.Check.has_errors (Lint.Check.program mutated))

(* --- System-level: globally precise restart -------------------------- *)

let prop_gprs_recovery_exact =
  case ~count:25 "gprs: faulty run's result equals the fault-free result"
    Gen.(quad (int_range 2 5) (int_range 4 14) (int_range 1 10_000) (int_range 1 6))
    (fun (workers, iters, seed, rate10) ->
      (* Rates up to 60/s: comfortably below the livelock threshold of
         this single-mutex workload (every sub-thread aliases the lock,
         so a fault squashes the whole unretired suffix; losses must stay
         under the inter-fault gap for progress). *)
      let p = Tprog.locked_counter ~work:20_000 ~workers ~iters () in
      let r =
        Gprs.Engine.run
          {
            Gprs.Engine.default_config with
            n_contexts = 4;
            seed;
            injector =
              Faults.Injector.config ~seed
                ~process:Faults.Injector.Poisson (float_of_int rate10 *. 10.0);
            max_cycles = Some 2_000_000_000;
          }
          p
      in
      (not r.Exec.State.dnc)
      && Vm.Mem.read r.Exec.State.final_mem 0 = workers * iters)

let prop_cpr_recovery_exact =
  case ~count:15 "cpr: faulty run's result equals the fault-free result"
    Gen.(triple (int_range 2 4) (int_range 4 10) (int_range 1 10_000))
    (fun (workers, iters, seed) ->
      let p = Tprog.locked_counter ~work:20_000 ~workers ~iters () in
      let r =
        Cpr.run
          {
            Cpr.default_config with
            n_contexts = 4;
            seed;
            checkpoint_interval = 0.01;
            injector = Faults.Injector.config ~seed 15.0;
          }
          p
      in
      (not r.Exec.State.dnc)
      && Vm.Mem.read r.Exec.State.final_mem 0 = workers * iters)

(* --- WAL: pruning and dropping never strand or invent entries -------- *)

(* A plan is a list of appends (by order id) followed by interleaved
   prune/squash operations; the live set must always be exactly the
   appended entries minus the pruned and squashed ones. *)
let wal_plan_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 80) (int_range 0 9))
      (list_size (int_range 0 8) (pair bool (int_range 0 9))))

let prop_wal_no_stranding =
  case "wal: prune_below + squash never strand entries" wal_plan_gen
    (fun (orders, cuts) ->
      let w = Wal.create () in
      List.iter
        (fun o -> ignore (Wal.append w ~order:o (Wal.Rol_insert { sub = o })))
        orders;
      let live = ref (List.length orders) in
      let gone_below = ref 0 in
      let dropped = Hashtbl.create 8 in
      List.iter
        (fun (is_prune, o) ->
          if is_prune then begin
            let n = Wal.prune_below w ~order:o in
            live := !live - n;
            gone_below := Stdlib.max !gone_below o
          end
          else begin
            let n = List.length (Wal.squash w [ o ]) in
            live := !live - n;
            if o >= !gone_below then Hashtbl.replace dropped o ()
          end)
        cuts;
      let expect =
        List.length
          (List.filter
             (fun o -> o >= !gone_below && not (Hashtbl.mem dropped o))
             orders)
      in
      Wal.size w = !live && !live = expect
      && Wal.high_water w = List.length orders
      && List.length (Wal.all w) = expect)

let prop_wal_entries_newest_first =
  case "wal: squash is strictly newest-first in LSN"
    (QCheck2.Gen.list_size
       (QCheck2.Gen.int_range 1 100)
       (QCheck2.Gen.int_range 0 5))
    (fun orders ->
      let w = Wal.create () in
      List.iter
        (fun o -> ignore (Wal.append w ~order:o (Wal.Io_op { file = 0; words = o })))
        orders;
      let rec strictly_desc = function
        | (a : Wal.entry) :: (b :: _ as rest) ->
          a.Wal.lsn > b.Wal.lsn && strictly_desc rest
        | _ -> true
      in
      strictly_desc (Wal.squash w [ 0; 2; 4 ]))

(* --- Differential: the flat structures against their reference models *)

(* Runs [f] and reports whether it raised [Invalid_argument]. *)
let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

type undo_op =
  | U_write of int * int * int * int  (* kind, location, aux, value *)
  | U_bound of int * int  (* a file key near the encoding bound *)
  | U_replay
  | U_reset

let undo_op_gen =
  let max_file = (1 lsl 20) - 1 in
  Gen.(
    frequency
      [
        ( 12,
          map
            (fun (k, (a, (x, v))) -> U_write (k, a, x, v))
            (pair (int_range 0 3)
               (pair (int_range 0 15) (pair (int_range 0 11) (int_range 0 99))))
        );
        ( 2,
          map2
            (fun f off -> U_bound (f, off))
            (oneofl [ -1; 0; max_file - 1; max_file; max_file + 1; max_int ])
            (oneofl [ 0; 7; (1 lsl 40) - 1; 1 lsl 40; -(1 lsl 40); -(1 lsl 40) - 1 ]));
        (1, return U_replay);
        (1, return U_reset);
      ])

(* One simulated machine per log, so each replays into its own state. *)
let undo_machine () =
  let io = Vm.Io.create () in
  for f = 0 to 2 do
    ignore (Vm.Io.add_file io ~name:(string_of_int f) [| f; f + 1 |])
  done;
  (Vm.Mem.create ~words:16, Array.make 12 0, io)

let machine_state (mem, atomics, io) =
  ( Array.init 16 (Vm.Mem.read mem),
    Array.copy atomics,
    List.init 3 (Vm.Io.contents io) )

(* One tracked write of kind [k] (memory word, atomic, file word,
   file length) applied to both machines, its pre-images noted through
   [note] first; [true] when every note agreed. *)
let undo_write ~(note : Exec.Undo_log.key -> old:int -> rold:int -> bool)
    (mem, atomics, io) (rmem, ratomics, rio) (k, a, x, v) =
  match k with
  | 0 ->
    let ok = note (K_mem a) ~old:(Vm.Mem.read mem a) ~rold:(Vm.Mem.read rmem a) in
    Vm.Mem.write mem a v;
    Vm.Mem.write rmem a v;
    ok
  | 1 ->
    let a = a mod 12 in
    let ok = note (K_atomic a) ~old:atomics.(a) ~rold:ratomics.(a) in
    atomics.(a) <- v;
    ratomics.(a) <- v;
    ok
  | 2 ->
    let f = a mod 3 and off = x in
    let grow io =
      let len = Vm.Io.size io f in
      if off >= len then Some len else None
    in
    let ok_len =
      match (grow io, grow rio) with
      | Some len, Some rlen -> note (K_file_len f) ~old:len ~rold:rlen
      | None, None -> true
      | _ -> false
    in
    let ok =
      note (K_file (f, off)) ~old:(Vm.Io.read io f ~off)
        ~rold:(Vm.Io.read rio f ~off)
    in
    Vm.Io.write io f ~off v;
    Vm.Io.write rio f ~off v;
    ok_len && ok
  | _ ->
    let f = a mod 3 and len = x in
    let ok = note (K_file_len f) ~old:(Vm.Io.size io f) ~rold:(Vm.Io.size rio f) in
    Vm.Io.truncate io f len;
    Vm.Io.truncate rio f len;
    ok

let prop_undo_log_model =
  case "undo log: flat log equals the Hashtbl reference model"
    Gen.(list_size (int_range 1 150) undo_op_gen)
    (fun ops ->
      let ((mem, atomics, io) as m) = undo_machine () in
      let ((rmem, ratomics, rio) as rm) = undo_machine () in
      let log = Exec.Undo_log.create () and rlog = Ref_models.Undo_log.create () in
      (* Keys the machines cannot replay: file ids past the 3 files, or
         offsets far outside them. *)
      let unreplayable = ref false in
      let same () =
        Exec.Undo_log.size log = Ref_models.Undo_log.size rlog
        && Exec.Undo_log.is_empty log = Ref_models.Undo_log.is_empty rlog
        && Exec.Undo_log.keys log = Ref_models.Undo_log.keys rlog
      in
      let note key ~old ~rold =
        Exec.Undo_log.note log key ~old = Ref_models.Undo_log.note rlog key ~old:rold
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | U_write (k, a, x, v) -> undo_write ~note m rm (k, a, x, v)
            | U_bound (f, off) ->
              let key = Exec.Undo_log.K_file (f, off) in
              let in_range =
                f >= 0 && f < 1 lsl 20 && off >= -(1 lsl 40) && off < 1 lsl 40
              in
              if in_range then begin
                unreplayable := !unreplayable || f >= 3 || off < 0 || off > 11;
                note key ~old:0 ~rold:0
              end
              else raises_invalid (fun () -> Exec.Undo_log.note log key ~old:0)
            | U_replay when !unreplayable ->
              unreplayable := false;
              Exec.Undo_log.reset log;
              Ref_models.Undo_log.reset rlog;
              true
            | U_replay ->
              Exec.Undo_log.replay ~mem ~atomics ~io log
              = Ref_models.Undo_log.replay ~mem:rmem ~atomics:ratomics ~io:rio rlog
              && machine_state m = machine_state rm
            | U_reset ->
              unreplayable := false;
              Exec.Undo_log.reset log;
              Ref_models.Undo_log.reset rlog;
              true
          in
          ok && same ())
        ops)

(* --- Memory sized to the words written ---------------------------------- *)

type grow_op =
  | G_write of int * int
  | G_read of int
  | G_touch of int
  | G_capture of int
  | G_restore of int

(* A memory declared well above its start size (with a short last page)
   against a flat array: writes in bands below and above each doubling,
   reads and first-touch tests anywhere, out-of-range addresses
   included, and captures into and restores from two images while the
   array grows. Values, raised [Invalid_argument]s and word counts must
   agree at every step, and every word at the end. *)
let prop_mem_growth_model =
  let words = (1 lsl 16) + 100 in
  let inside =
    Gen.oneof
      [
        Gen.int_range 0 127;
        Gen.int_range 16_300 16_500;
        Gen.int_range 32_700 33_000;
        Gen.int_range (words - 200) (words - 1);
      ]
  in
  let any = Gen.(frequency [ (4, inside); (1, oneofl [ -1; -64; words; words + 1; max_int ]) ]) in
  case ~count:100
    "mem: grown memory equals a flat array (reads above the written words, bounds, images across growth)"
    Gen.(
      list_size (int_range 1 120)
        (frequency
           [
             (5, map2 (fun a v -> G_write (a, v)) any (int_range 0 9999));
             (3, map (fun a -> G_read a) any);
             (2, map (fun a -> G_touch a) any);
             (1, map (fun k -> G_capture k) (int_range 0 1));
             (1, map (fun k -> G_restore k) (int_range 0 1));
           ]))
    (fun ops ->
      let module R = Ref_models.Mem_image in
      let m = Vm.Mem.create ~words and r = R.create ~words in
      let touched = Array.make words 0 in
      let imgs = Array.init 2 (fun _ -> Vm.Mem.alloc_image m) in
      let rimgs = Array.init 2 (fun _ -> R.alloc_image r) in
      (* Both return the same value, or both raise [Invalid_argument]. *)
      let agree f g =
        match f () with
        | v -> ( match g () with w -> v = w | exception Invalid_argument _ -> false)
        | exception Invalid_argument _ -> raises_invalid g
      in
      List.for_all
        (fun op ->
          match op with
          | G_write (a, v) ->
            agree (fun () -> Vm.Mem.write m a v) (fun () -> R.write r a v)
          | G_read a -> agree (fun () -> Vm.Mem.read m a) (fun () -> R.read r a)
          | G_touch a ->
            agree
              (fun () -> Vm.Mem.touch m a)
              (fun () ->
                if touched.(a) < r.R.epoch then begin
                  touched.(a) <- r.R.epoch;
                  true
                end
                else false)
          | G_capture k -> Vm.Mem.capture m imgs.(k) = R.capture r rimgs.(k)
          | G_restore k ->
            Vm.Mem.restore_image m imgs.(k) = R.restore_image r rimgs.(k))
        ops
      && Array.init words (Vm.Mem.read m) = Array.init words (R.read r))

(* --- Undo log as a per-thread history buffer -------------------------- *)

type journal_op =
  | J_write of int * int * int * int  (* as [U_write] *)
  | J_mark
  | J_replay of int  (* from the start of a kept epoch, picked mod their count *)
  | J_drop of int  (* before the start of a kept epoch *)
  | J_bad  (* a position outside the kept entries *)

let journal_op_gen =
  Gen.(
    frequency
      [
        ( 10,
          map
            (fun (k, (a, (x, v))) -> J_write (k, a, x, v))
            (pair (int_range 0 3)
               (pair (int_range 0 15) (pair (int_range 0 11) (int_range 0 99))))
        );
        (3, return J_mark);
        (1, map (fun k -> J_replay k) (int_range 0 7));
        (1, map (fun k -> J_drop k) (int_range 0 7));
        (1, return J_bad);
      ])

(* One journal against the per-sub-thread logs it replaced: the model
   keeps one reference log per epoch, with its start position. A mark
   opens the next epoch; a suffix replay replays the epochs it covers
   newest first and opens a fresh one at its start; a dropped prefix
   forgets whole epochs. Sizes, kept keys (newest first), every note's
   verdict, replay counts and the replayed machines must agree. *)
let prop_journal_model =
  case "undo log: one journal equals per-epoch logs under mark, replay_from and drop_before"
    Gen.(list_size (int_range 1 200) journal_op_gen)
    (fun ops ->
      let ((mem, atomics, io) as m) = undo_machine () in
      let ((rmem, ratomics, rio) as rm) = undo_machine () in
      let j = Exec.Undo_log.create () in
      let epochs = ref [ (0, Ref_models.Undo_log.create ()) ] in
      (* newest first *)
      let open_log () = snd (List.hd !epochs) in
      let end_pos () =
        let start, log = List.hd !epochs in
        start + Ref_models.Undo_log.size log
      in
      let first_pos () = fst (List.nth !epochs (List.length !epochs - 1)) in
      let pick k = List.nth !epochs (k mod List.length !epochs) in
      let note key ~old ~rold =
        Exec.Undo_log.note j key ~old = Ref_models.Undo_log.note (open_log ()) key ~old:rold
      in
      let same () =
        Exec.Undo_log.size j
        = List.fold_left (fun n (_, l) -> n + Ref_models.Undo_log.size l) 0 !epochs
        && Exec.Undo_log.keys j
           = List.concat_map (fun (_, l) -> Ref_models.Undo_log.keys l) !epochs
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | J_write (k, a, x, v) -> undo_write ~note m rm (k, a, x, v)
            | J_mark ->
              let pos = end_pos () in
              epochs := (pos, Ref_models.Undo_log.create ()) :: !epochs;
              Exec.Undo_log.mark j = pos
            | J_replay k ->
              let from = fst (pick k) in
              let undone =
                Exec.Undo_log.replay_from ~mem ~atomics ~io j ~from
              in
              let gone, kept = List.partition (fun (p, _) -> p >= from) !epochs in
              let rundone =
                List.fold_left
                  (fun n (_, l) ->
                    n
                    + Ref_models.Undo_log.replay ~mem:rmem ~atomics:ratomics ~io:rio l)
                  0 gone
              in
              epochs := (from, Ref_models.Undo_log.create ()) :: kept;
              undone = rundone && machine_state m = machine_state rm
            | J_drop k ->
              let pos = fst (pick k) in
              Exec.Undo_log.drop_before j pos;
              epochs := List.filter (fun (p, _) -> p >= pos) !epochs;
              true
            | J_bad ->
              let before = first_pos () - 1 and past = end_pos () + 1 in
              raises_invalid (fun () -> Exec.Undo_log.drop_before j past)
              && raises_invalid (fun () ->
                     Exec.Undo_log.replay_from ~mem ~atomics ~io j ~from:past)
              && raises_invalid (fun () ->
                     Exec.Undo_log.replay_from ~mem ~atomics ~io j ~from:before)
          in
          ok && same ())
        ops)

type wal_op =
  | W_append of { order : int; kind : int; at : int; a : int; b : int }
  | W_prune of int
  | W_drop of int * int  (* orders o with o mod m = r *)
  | W_checkpoint of {
      min_retired : int;
      brk : int;
      active : int list;
      free : (int * int) list;
      used : (int * int) list;
    }

(* Record fields that reach every branch of the image's digit writer:
   zero, one-digit and nineteen-digit magnitudes of both signs, and the
   ends of the int range. Orders stay small: they index the live log. *)
let edge_int_gen =
  Gen.(
    frequency
      [
        (4, int_range (-20) 100);
        (2, int);
        (1, oneofl [ 0; -1; 9; 10; -10; max_int; min_int; max_int - 1; min_int + 1 ]);
      ])

(* Empty, one-element and many-element lists. *)
let edge_list_gen g =
  Gen.(
    frequency
      [
        (1, return []);
        (1, map (fun x -> [ x ]) g);
        (2, list_size (int_range 2 12) g);
      ])

let wal_op_gen =
  Gen.(
    frequency
      [
        ( 10,
          map5
            (fun order kind at a b -> W_append { order; kind; at; a; b })
            (int_range 0 40) (int_range 0 5) edge_int_gen edge_int_gen edge_int_gen );
        (2, map (fun o -> W_prune o) (int_range 0 45));
        (2, map2 (fun m r -> W_drop (m, r mod m)) (int_range 1 6) (int_range 0 5));
        ( 1,
          map5
            (fun min_retired brk active free used ->
              W_checkpoint { min_retired; brk; active; free; used })
            edge_int_gen edge_int_gen (edge_list_gen edge_int_gen)
            (edge_list_gen (pair edge_int_gen edge_int_gen))
            (edge_list_gen (pair edge_int_gen edge_int_gen)) );
      ])

let wal_op_of k a b : Wal.op =
  match k with
  | 0 -> Alloc { addr = a; size = b }
  | 1 -> Free { addr = a; size = b }
  | 2 -> Thread_create { tid = a }
  | 3 -> Rol_insert { sub = a }
  | 4 -> Sched_enqueue { sub = a }
  | _ -> Io_op { file = a; words = b }

(* The ascending orders [o mod m = rem] of the generator's range, live
   or not: recovery squashes sub-threads that may have logged nothing. *)
let squash_ids m rem = List.filter (fun o -> o mod m = rem) (List.init 46 Fun.id)

let prop_wal_model =
  case "wal: order-bucketed log equals the list reference model"
    Gen.(pair bool (list_size (int_range 1 200) wal_op_gen))
    (fun (stable, ops) ->
      let w = Wal.create ~stable () and r = Ref_models.Wal.create ~stable () in
      List.for_all
        (fun op ->
          let counts_agree =
            match op with
            | W_append { order; kind; at; a; b } ->
              let op = wal_op_of kind a b in
              Wal.append w ~at ~order op = Ref_models.Wal.append r ~at ~order op
            | W_prune order ->
              Wal.prune_below w ~order = Ref_models.Wal.prune_below r ~order
            | W_drop (m, rem) ->
              let ids = squash_ids m rem in
              Wal.squash w ids = Ref_models.Wal.squash r ids
            | W_checkpoint { min_retired; brk; active; free; used } ->
              Wal.log_checkpoint w ~min_retired ~active ~brk ~free ~used;
              Ref_models.Wal.log_checkpoint r ~min_retired ~active ~brk ~free ~used;
              true
          in
          counts_agree
          && Wal.size w = Ref_models.Wal.size r
          && Wal.high_water w = Ref_models.Wal.high_water r
          && Wal.all w = Ref_models.Wal.all r
          && Wal.stable_image w = Ref_models.Wal.stable_image r)
        ops)

(* --- WAL image scanner: differential against the split-and-substring
   reader ------------------------------------------------------------- *)

(* The stable image of an op sequence, opened like an engine's by an
   empty checkpoint so that it is never empty. *)
let wal_image ops =
  let w = Wal.create ~stable:true () in
  Wal.log_checkpoint w ~min_retired:0 ~active:[] ~brk:0 ~free:[] ~used:[];
  List.iter
    (function
      | W_append { order; kind; at; a; b } ->
        ignore (Wal.append w ~at ~order (wal_op_of kind a b))
      | W_prune order -> ignore (Wal.prune_below w ~order)
      | W_drop (m, rem) -> ignore (Wal.squash w (squash_ids m rem))
      | W_checkpoint { min_retired; brk; active; free; used } ->
        Wal.log_checkpoint w ~min_retired ~active ~brk ~free ~used)
    ops;
  Option.get (Wal.stable_image w)

let wal_image_gen = Gen.(map wal_image (list_size (int_range 0 120) wal_op_gen))

let parsed parse image =
  match parse image with
  | recs -> Ok recs
  | exception Wal.Corrupt msg -> Error msg

let prop_wal_parse_model =
  case "wal: the image scanner reads every image as the reference reader does"
    wal_image_gen
    (fun image ->
      match parsed Wal.parse_image image with
      | Ok recs -> parsed Ref_models.Wal.parse_image image = Ok recs
      | Error _ -> false)

(* Start of the last line of a non-empty image that ends in '\n'. *)
let last_line_start image =
  match String.rindex_from_opt image (String.length image - 2) '\n' with
  | Some j -> j + 1
  | None -> 0

let prop_wal_parse_damaged =
  case "wal: a flipped byte or a cut last line is refused as the reference refuses it"
    Gen.(quad wal_image_gen bool nat (int_range 1 255))
    (fun (image, flip, at, mask) ->
      let n = String.length image in
      let damaged =
        if flip then
          String.mapi
            (fun i c -> if i = at mod n then Char.chr (Char.code c lxor mask) else c)
            image
        else
          (* Keep at least one byte of the last line and cut at least one
             byte of its text, as a torn write does. *)
          let start = last_line_start image in
          String.sub image 0 (start + 1 + (at mod (n - 2 - start)))
      in
      match parsed Wal.parse_image damaged with
      | Error msg -> parsed Ref_models.Wal.parse_image damaged = Error msg
      | Ok _ -> false)

(* Edits that leave a line's crc valid: a field replaced by, or a new
   field holding, a token at or past the edge of the grammar; a field
   removed; one byte of the body overwritten. *)
type line_edit =
  | E_replace of int * string
  | E_insert of int * string
  | E_remove of int
  | E_byte of int * char

let odd_tokens =
  [ ""; "-"; "--"; "+5"; "0x1f"; "1_0"; "007"; "-0"; "a"; "1:2"; "1,2"; ",";
    ":"; "1:"; ":2"; "1:2:3"; "-,1"; "1,"; "1:2,"; "4611686018427387903";
    "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
    "99999999999999999999"; "A"; "Z"; "AB"; "O"; "E"; "0u5"; "0b11"; "0o7";
    " "; "1  2"; "\t1"; "1\r" ]

let line_edit_gen =
  Gen.(
    oneof
      [
        map2 (fun f t -> E_replace (f, t)) nat (oneofl odd_tokens);
        map2 (fun f t -> E_insert (f, t)) nat (oneofl odd_tokens);
        map (fun f -> E_remove f) nat;
        map2
          (fun i c -> E_byte (i, c))
          nat
          (oneofl (List.of_seq (String.to_seq "0123456789-+ ,:xAFTRSIOPDBE_\t")));
      ])

(* Apply [edit] to the body of line [l] of [image] and give the line a
   valid crc again. *)
let reseal image l edit =
  let lines = String.split_on_char '\n' image in
  let lines = List.filter (fun x -> x <> "") lines in
  let l = l mod List.length lines in
  let edit_line line =
    let body = String.sub line 0 (String.rindex line ' ') in
    let fields = String.split_on_char ' ' body in
    let nf = List.length fields in
    let body =
      match edit with
      | E_replace (f, t) ->
        String.concat " " (List.mapi (fun i x -> if i = f mod nf then t else x) fields)
      | E_insert (f, t) ->
        String.concat " "
          (List.concat (List.mapi (fun i x -> if i = f mod nf then [ t; x ] else [ x ]) fields))
      | E_remove f ->
        String.concat " " (List.filteri (fun i _ -> i <> f mod nf) fields)
      | E_byte (i, c) ->
        if body = "" then body
        else String.mapi (fun j x -> if j = i mod String.length body then c else x) body
    in
    Printf.sprintf "%s %Lx" body (Ref_models.Wal.fnv1a body)
  in
  String.concat "\n" (List.mapi (fun i x -> if i = l then edit_line x else x) lines) ^ "\n"

let prop_wal_parse_resealed =
  case "wal: a re-sealed edited line the reference refuses is refused"
    Gen.(triple wal_image_gen nat line_edit_gen)
    (fun (image, l, edit) ->
      let image = reseal image l edit in
      match parsed Ref_models.Wal.parse_image image, parsed Wal.parse_image image with
      | Error _, Ok _ -> false
      | Ok want, Ok got -> got = want
      | _, Error _ -> true)

type order_op =
  | O_add of int * int  (* tid, group *)
  | O_remove of int
  | O_eligible of int * bool
  | O_advance_holder
  | O_advance of int

let order_op_gen =
  Gen.(
    frequency
      [
        (4, map2 (fun t g -> O_add (t, g)) (int_range 0 11) (int_range 0 3));
        (1, map (fun t -> O_remove t) (int_range 0 11));
        (4, map2 (fun t e -> O_eligible (t, e)) (int_range 0 11) bool);
        (4, return O_advance_holder);
        (1, map (fun t -> O_advance t) (int_range 0 11));
      ])

let prop_order_model =
  case "order: memoized holder equals an unmemoized scan after every step"
    Gen.(
      triple
        (oneofl Gprs.Order.[ Round_robin; Balance_aware; Weighted; Recorded ])
        (array_size (int_range 1 3) (int_range 0 4))
        (list_size (int_range 1 150) order_op_gen))
    (fun (sch, group_weights, ops) ->
      let t = Gprs.Order.create sch ~group_weights
      and r = Ref_models.Order.create sch ~group_weights in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | O_add (tid, group) ->
              raises_invalid (fun () -> Gprs.Order.add_thread t ~tid ~group)
              = raises_invalid (fun () -> Ref_models.Order.add_thread r ~tid ~group)
            | O_remove tid ->
              Gprs.Order.remove_thread t tid;
              Ref_models.Order.remove_thread r tid;
              true
            | O_eligible (tid, e) ->
              Gprs.Order.set_eligible t tid e;
              Ref_models.Order.set_eligible r tid e;
              true
            | O_advance_holder -> (
              match Ref_models.Order.holder r with
              | Some granted ->
                Gprs.Order.advance t ~granted;
                Ref_models.Order.advance r ~granted;
                true
              | None -> true)
            | O_advance granted ->
              Gprs.Order.advance t ~granted;
              Ref_models.Order.advance r ~granted;
              true
          in
          agree
          && Gprs.Order.holder t = Ref_models.Order.holder r
          && Gprs.Order.live_count t = Ref_models.Order.live_count r
          && List.for_all
               (fun tid ->
                 Gprs.Order.mem t tid = Ref_models.Order.mem r tid
                 && Gprs.Order.is_eligible t tid = Ref_models.Order.is_eligible r tid)
               (List.init 12 Fun.id))
        ops)

(* --- Allocator: squash-undo restores the free list exactly ----------- *)

(* The squashed sub-thread allocated random blocks (its frees were
   quarantined, so allocs are the only allocator mutations to undo).
   Undoing them newest-first must restore brk and the coalesced free
   list bit-exactly, from any fragmentation the prologue created. *)
let prop_alloc_undo_exact =
  case "allocator: alloc undo restores free list exactly (coalescing)"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 30) (pair (int_range 1 16) bool))
        (list_size (int_range 1 30) (int_range 1 24))
        int)
    (fun (prologue, sub_sizes, _seed) ->
      let m = Vm.Mem.create ~words:8192 in
      (* Fragment the arena: retired history the undo must not disturb. *)
      List.iter
        (fun (size, do_free) ->
          let a = Vm.Mem.alloc m size in
          if do_free then Vm.Mem.free m a)
        prologue;
      let before = Vm.Mem.alloc_parts m in
      let blocks = List.map (fun s -> Vm.Mem.alloc m s) sub_sizes in
      List.iter (fun a -> Vm.Mem.undo_alloc m a) (List.rev blocks);
      Vm.Mem.alloc_parts m = before)

(* --- Control-prefix fetch: against the step-by-step loop ------------ *)

(* The engines' original per-instruction fetch loop, kept as the model:
   one control transfer at a time, each committed to the TCB. Returns
   the landing instruction and the transfers crossed. *)
let model_fetch (tcb : Vm.Tcb.t) =
  let ctrl = ref 0 in
  let rec fetch () =
    match Vm.Tcb.current_instr tcb with
    | None -> Vm.Isa.Exit
    | Some (Vm.Isa.Goto target) ->
      tcb.Vm.Tcb.pc <- target;
      incr ctrl;
      fetch ()
    | Some (Vm.Isa.If { cond; target }) ->
      tcb.Vm.Tcb.pc <- (if cond tcb.Vm.Tcb.regs then target else tcb.Vm.Tcb.pc + 1);
      incr ctrl;
      fetch ()
    | Some Vm.Isa.Cpr_begin ->
      tcb.Vm.Tcb.in_cpr_region <- true;
      tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1;
      incr ctrl;
      fetch ()
    | Some Vm.Isa.Cpr_end ->
      tcb.Vm.Tcb.in_cpr_region <- false;
      tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1;
      incr ctrl;
      fetch ()
    | Some i -> i
  in
  let i = fetch () in
  (i, !ctrl)

(* Random control-heavy code: every branch goes forward (possibly past
   the end), so no chain loops forever. *)
let prop_fetch_model =
  case "fetch: equals the step-by-step fetch loop"
    QCheck2.Gen.(
      quad
        (list_size (int_range 1 12) (triple (int_range 0 5) (int_range 1 4) (int_range 0 3)))
        (int_range 0 13) (int_range 0 3) bool)
    (fun (shape, pc, r0, in_cpr) ->
      let code =
        List.mapi
          (fun i (kind, jump, k) ->
            match kind with
            | 0 -> Vm.Isa.Goto (i + jump)
            | 1 -> Vm.Isa.If { cond = (fun r -> r.(0) >= k); target = i + jump }
            | 2 -> Vm.Isa.Cpr_begin
            | 3 -> Vm.Isa.Cpr_end
            | 4 -> Vm.Isa.Exit
            | _ -> Vm.Isa.Work { cost = (fun _ -> i); run = ignore })
          shape
      in
      let proc = { Vm.Isa.pname = "p"; code = Array.of_list code } in
      let pc = min pc (Array.length proc.Vm.Isa.code) in
      let fresh () =
        let t = Vm.Tcb.create ~tid:0 ~group:0 ~proc ~args:[| r0 |] in
        t.Vm.Tcb.pc <- pc;
        t.Vm.Tcb.in_cpr_region <- in_cpr;
        t
      in
      let a = fresh () and b = fresh () in
      let pr = Exec.Fuse.fetch a in
      let instr, ctrl = model_fetch b in
      pr.Vm.Block.p_instr == instr
      && pr.Vm.Block.p_ctrl = ctrl
      && a.Vm.Tcb.pc = b.Vm.Tcb.pc
      && a.Vm.Tcb.in_cpr_region = b.Vm.Tcb.in_cpr_region)

(* --- lint probe: flat scratch tables against the Hashtbl sandbox --- *)

type operand = Imm of int | Reg of int

type probe_op =
  | P_read of operand * int  (* address, destination register *)
  | P_write of operand * operand  (* address, value *)
  | P_file_read of operand * operand * int  (* fd, offset, destination *)
  | P_file_write of operand * operand * operand  (* fd, offset, value *)
  | P_file_size of operand * int  (* fd, destination *)
  | P_sweep of { fd : operand option; base : operand; n : int; write : bool }
      (* [n] accesses to consecutive addresses, or offsets of [fd], from
         [base]: long ones outgrow the tables or run out of fuel *)

let probe_regs = 8

(* Small addresses collide, so bodies read back what they wrote; the
   rest reach the ends of the int range. *)
let probe_int_gen =
  Gen.(
    frequency
      [
        (6, int_range (-4) 40);
        (1, int);
        ( 1,
          oneofl
            [ min_int; max_int; min_int + 1; max_int - 1; 1 lsl 40; -(1 lsl 40) ]
        );
      ])

let operand_gen =
  Gen.(
    frequency
      [
        (2, map (fun r -> Reg r) (int_range 0 (probe_regs - 1)));
        (5, map (fun k -> Imm k) probe_int_gen);
      ])

let probe_op_gen =
  let reg = Gen.int_range 0 (probe_regs - 1) in
  Gen.(
    frequency
      [
        (4, map2 (fun a d -> P_read (a, d)) operand_gen reg);
        (4, map2 (fun a v -> P_write (a, v)) operand_gen operand_gen);
        (3, map3 (fun f o d -> P_file_read (f, o, d)) operand_gen operand_gen reg);
        ( 3,
          map3 (fun f o v -> P_file_write (f, o, v)) operand_gen operand_gen
            operand_gen );
        (1, map2 (fun f d -> P_file_size (f, d)) operand_gen reg);
        ( 2,
          map4
            (fun fd base n write -> P_sweep { fd; base; n; write })
            (opt operand_gen) operand_gen
            (frequency
               [ (4, int_range 1 200); (2, int_range 200 2000); (1, int_range 50_000 60_000) ])
            bool );
      ])

(* A body that logs every value an operation returns, so two runs agree
   on the values and on the operation at which [Out_of_fuel] cut them. *)
let probe_body ops log (env : Vm.Env.t) =
  let v = function Imm k -> k | Reg r -> env.Vm.Env.regs.(r) in
  let ret dst x =
    log := x :: !log;
    env.Vm.Env.regs.(dst) <- x
  in
  List.iter
    (function
      | P_read (a, dst) -> ret dst (env.Vm.Env.read (v a))
      | P_write (a, x) -> env.Vm.Env.write (v a) (v x)
      | P_file_read (f, off, dst) -> ret dst (env.Vm.Env.file_read (v f) ~off:(v off))
      | P_file_write (f, off, x) -> env.Vm.Env.file_write (v f) ~off:(v off) (v x)
      | P_file_size (f, dst) -> ret dst (env.Vm.Env.file_size (v f))
      | P_sweep { fd; base; n; write } ->
        let base = v base in
        for i = 0 to n - 1 do
          match (fd, write) with
          | None, true -> env.Vm.Env.write (base + i) (i * 7)
          | None, false -> ret (i land 7) (env.Vm.Env.read (base + i))
          | Some f, true -> env.Vm.Env.file_write (v f) ~off:(base + i) (i * 7)
          | Some f, false -> ret (i land 7) (env.Vm.Env.file_read (v f) ~off:(base + i))
        done)
    ops

let absval_gen =
  Gen.(
    frequency
      [ (3, map (fun k -> Lint.Absval.Known k) probe_int_gen); (1, return Lint.Absval.Top) ])

(* Probes run before the compared bodies on the same scratch, enough of
   them to carry the one-byte stamps through their wrap at 255: the
   first writes a block of memory and of a file, every later one reads
   it back (after claiming the file table anew) and must not see it. *)
let aging_body k =
  let block write =
    [
      P_sweep { fd = None; base = Imm 10_000; n = 100; write };
      P_sweep { fd = Some (Imm 1); base = Imm 10_000; n = 100; write };
    ]
  in
  if k = 0 then block true else P_file_write (Imm 1, Imm (-1), Imm k) :: block false

(* Both probes agree, through every table: returned values, the fuel
   cut, post-state registers, the summary and the raw access sets. *)
let probe_agrees sc ~record ~mem_words regs ops =
  let log_flat = ref [] and log_ref = ref [] in
  let p = Lint.Races.probe_work sc ~record ~mem_words regs (probe_body ops log_flat) in
  let p', sets' =
    Ref_models.Lint_probe.probe_work ~record ~mem_words regs (probe_body ops log_ref)
  in
  p = p' && Lint.Races.recorded sc = sets' && !log_flat = !log_ref

let prop_lint_probe_model =
  case ~count:100 "lint probe: flat scratch tables equal the Hashtbl sandbox"
    Gen.(
      tup5
        (frequency [ (2, return 0); (1, int_range 200 300) ])
        bool
        (oneofl [ 0; 1; 64; 100; 1 lsl 20; 1 lsl 40 ])
        (array_size (return probe_regs) absval_gen)
        (list_size (int_range 1 4) (list_size (int_range 0 30) probe_op_gen)))
    (fun (aging, record, mem_words, regs, bodies) ->
      let sc = Lint.Races.scratch () in
      List.for_all
        (probe_agrees sc ~record ~mem_words regs)
        (List.init aging aging_body @ bodies))

(* A body that writes more entries than several growth steps hold, in
   memory and in a file, then reads them all back. *)
let lint_probe_growth () =
  let n = 3000 in
  let sweeps write =
    [
      P_sweep { fd = None; base = Imm 100; n; write };
      P_sweep { fd = Some (Imm 2); base = Imm (-5); n; write };
    ]
  in
  let regs = Array.make probe_regs (Lint.Absval.Known 3) in
  let sc = Lint.Races.scratch () in
  let log = ref [] in
  ignore
    (Lint.Races.probe_work sc ~mem_words:(1 lsl 20) regs
       (probe_body (sweeps true @ sweeps false) log));
  let written = List.init n (fun i -> i * 7) in
  (* two probes, each reading both sweeps back, logged newest first *)
  Alcotest.(check (list int)) "read back" (List.concat (List.init 4 (fun _ -> List.rev written)))
    !log;
  Alcotest.(check bool) "equals the Hashtbl sandbox" true
    (probe_agrees sc ~record:true ~mem_words:(1 lsl 20) regs (sweeps true @ sweeps false))

let suite =
  [
    prop_prng_bounds;
    prop_prng_copy_independent;
    prop_evq_sorted;
    prop_evq_cancel;
    prop_deque_model;
    prop_fifo_model;
    prop_alloc_no_overlap;
    prop_alloc_free_roundtrip;
    prop_alloc_coalesce;
    prop_mem_image_equiv;
    prop_mem_image_model;
    prop_mem_growth_model;
    prop_undo_restores;
    prop_paged_undo_equiv;
    prop_rol_head_is_min;
    prop_rol_retire_prefix;
    prop_order_grants_eligible;
    prop_order_fair;
    prop_weighted_turn_share;
    prop_scheduler_conservation;
    prop_barrier_phases;
    prop_chunks_partition;
    prop_lint_wellformed_clean;
    prop_lint_mutation_caught;
    prop_gprs_recovery_exact;
    prop_cpr_recovery_exact;
    prop_wal_no_stranding;
    prop_wal_entries_newest_first;
    prop_alloc_undo_exact;
    prop_fetch_model;
    prop_undo_log_model;
    prop_journal_model;
    prop_wal_model;
    prop_wal_parse_model;
    prop_wal_parse_damaged;
    prop_wal_parse_resealed;
    prop_order_model;
    prop_lint_probe_model;
    Alcotest.test_case "lint probe: writes read back across table growth" `Quick
      lint_probe_growth;
  ]
