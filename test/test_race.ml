(* Race detection, cross-validated: directed racy fixtures must be
   caught by BOTH the static lockset pass ([Lint.Race]) and the dynamic
   FastTrack sanitizer ([Exec.Tsan]) under every engine; the shipped
   workload suite must be clean on both sides; and qcheck ties the two
   together (dropping a lock from a well-formed generated program is
   flagged statically, and any dynamic report implies a static one). *)

open Vm.Builder

let checkb = Alcotest.(check bool)

let static_diags p = Lint.Race.program p
let static_racy p =
  Lint.Check.has_kind Lint.Diagnostic.Race_unprotected (static_diags p)

(* Dynamic run with the sanitizer forced on; restores the global flag so
   surrounding tests keep their bit-identical off-leg. *)
let run_dyn ~engine ?(contexts = 4) p =
  let was = Exec.Tsan.enabled () in
  Exec.Tsan.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Exec.Tsan.set_enabled was)
    (fun () ->
      match engine with
      | `Pthreads ->
        Exec.Baseline.run
          { Exec.Baseline.default_config with n_contexts = contexts }
          p
      | `Cpr ->
        Cpr.run { Cpr.default_config with n_contexts = contexts } p
      | `Gprs ->
        Gprs.Engine.run
          { Gprs.Engine.default_config with n_contexts = contexts }
          p)

let dyn_races ~engine p = (run_dyn ~engine p).Exec.State.races

let engines = [ ("pthreads", `Pthreads); ("cpr", `Cpr); ("gprs", `Gprs) ]

let expect_both_catch name p =
  checkb (name ^ ": static pass flags the race") true (static_racy p);
  List.iter
    (fun (ename, e) ->
      checkb
        (Printf.sprintf "%s: %s sanitizer observes the race" name ename)
        true
        (dyn_races ~engine:e p <> []))
    engines

(* --- directed racy fixtures ------------------------------------------- *)

(* Two instances of the same worker write word 7 with no lock at all:
   the canonical unlocked write/write race. *)
let unlocked_ww_prog () =
  let w = proc "worker" in
  work_const w 5 (fun env -> env.Vm.Env.write 7 env.Vm.Env.tid);
  exit_ w;
  let m = proc "main" in
  fork m ~group:0 ~proc:"worker" ~dst:1 (fun _ -> [||]);
  fork m ~group:0 ~proc:"worker" ~dst:2 (fun _ -> [||]);
  join_reg m 1;
  join_reg m 2;
  exit_ m;
  program ~mem_words:64 ~entry:"main" [ finish m; finish w ]

let unlocked_write_write () =
  expect_both_catch "unlocked w/w" (unlocked_ww_prog ())

(* Writer guards word 7 with mutex 0, reader with mutex 1: both sides
   are locked, but the locksets are disjoint, so nothing orders them. *)
let disjoint_locks_prog () =
  let wr = proc "writer" in
  lock_const wr 0;
  work_const wr 5 (fun env -> env.Vm.Env.write 7 1);
  unlock_const wr 0;
  exit_ wr;
  let rd = proc "reader" in
  lock_const rd 1;
  work_const rd 5 (fun env -> Vm.Env.set env 0 (env.Vm.Env.read 7));
  unlock_const rd 1;
  exit_ rd;
  let m = proc "main" in
  fork m ~group:0 ~proc:"writer" ~dst:1 (fun _ -> [||]);
  fork m ~group:0 ~proc:"reader" ~dst:2 (fun _ -> [||]);
  join_reg m 1;
  join_reg m 2;
  exit_ m;
  program ~mem_words:64 ~n_mutexes:2 ~entry:"main"
    [ finish m; finish wr; finish rd ]

let write_read_disjoint_locks () =
  expect_both_catch "disjoint locks w/r" (disjoint_locks_prog ())

(* The lock id comes in as a fork argument that differs between the two
   instances, so the static pass sees an unresolved (Top) id. An
   unresolved lock must never prove two sites use the SAME mutex —
   and indeed at runtime the instances hold different mutexes while
   both writing word 7. *)
let top_lock_prog () =
  let w = proc "worker" in
  lock w (fun r -> r.(0));
  work_const w 5 (fun env -> env.Vm.Env.write 7 env.Vm.Env.tid);
  unlock w (fun r -> r.(0));
  exit_ w;
  let m = proc "main" in
  fork m ~group:0 ~proc:"worker" ~dst:1 (fun _ -> [| 0 |]);
  fork m ~group:0 ~proc:"worker" ~dst:2 (fun _ -> [| 1 |]);
  join_reg m 1;
  join_reg m 2;
  exit_ m;
  program ~mem_words:64 ~n_mutexes:2 ~entry:"main" [ finish m; finish w ]

let race_behind_top_lock () =
  expect_both_catch "race behind unresolved lock id" (top_lock_prog ())

(* --- fixtures that must stay clean ------------------------------------ *)

let clean_fixtures () =
  List.iter
    (fun (name, p) ->
      checkb (name ^ ": no static race") false (static_racy p);
      checkb (name ^ ": no dynamic race") true (dyn_races ~engine:`Gprs p = []))
    [
      ("locked_counter", Tprog.locked_counter ~workers:3 ~iters:4 ());
      ("pipeline", Tprog.pipeline ~blocks:6 ~consumers:2 ());
      ("fork_join_sum", Tprog.fork_join_sum ~workers:3 ());
      ("nonstd_region", Tprog.nonstd_region ~workers:2 ~iters:3 ());
    ]

(* --- probe fuel degradation ------------------------------------------- *)

let probe_fuel_note () =
  (* The Work body touches memory more times than the probe budget, so
     the summary degrades and the lint must say so rather than stay
     silent about the reduced coverage. *)
  let m = proc "main" in
  work_const m 1 (fun env ->
      let acc = ref 0 in
      for _ = 1 to Lint.Absval.probe_fuel + 10 do
        acc := !acc + env.Vm.Env.read 0
      done;
      Vm.Env.set env 1 !acc);
  exit_ m;
  let p = program ~mem_words:64 ~entry:"main" [ finish m ] in
  checkb "fuel exhaustion surfaces as a finding" true
    (Lint.Check.has_kind Lint.Diagnostic.Probe_fuel (static_diags p));
  checkb "fuel exhaustion alone is not an error" false
    (Lint.Check.has_errors (static_diags p))

(* --- shipped workloads: clean on both sides --------------------------- *)

let workload_sweep_static () =
  List.iter
    (fun spec ->
      let p =
        spec.Workloads.Workload.build ~n_contexts:4
          ~grain:Workloads.Workload.Default ~scale:0.1
      in
      let racy =
        List.filter
          (fun d -> d.Lint.Diagnostic.kind = Lint.Diagnostic.Race_unprotected)
          (static_diags p)
      in
      checkb
        (Printf.sprintf "%s: statically race-free (got %d findings)"
           spec.Workloads.Workload.name (List.length racy))
        true (racy = []))
    Workloads.Suite.all

let workload_sweep_dynamic () =
  List.iter
    (fun spec ->
      let p =
        spec.Workloads.Workload.build ~n_contexts:4
          ~grain:Workloads.Workload.Default ~scale:0.1
      in
      List.iter
        (fun (ename, e) ->
          let rs = dyn_races ~engine:e p in
          checkb
            (Printf.sprintf "%s/%s: dynamically race-free (got %d reports)"
               spec.Workloads.Workload.name ename (List.length rs))
            true (rs = []))
        [ ("pthreads", `Pthreads); ("gprs", `Gprs) ])
    Workloads.Suite.all

(* --- sanitizer plumbing ----------------------------------------------- *)

let disabled_reports_nothing () =
  let was = Exec.Tsan.enabled () in
  Exec.Tsan.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Exec.Tsan.set_enabled was)
    (fun () ->
      let r =
        Exec.Baseline.run
          { Exec.Baseline.default_config with n_contexts = 4 }
          (unlocked_ww_prog ())
      in
      checkb "disabled sanitizer reports nothing even on a racy program"
        true
        (r.Exec.State.races = []))

let report_sites_make_sense () =
  let rs = dyn_races ~engine:`Pthreads (unlocked_ww_prog ()) in
  checkb "at least one report" true (rs <> []);
  List.iter
    (fun r ->
      checkb "report names word 7" true (r.Exec.Tsan.addr = 7);
      checkb "reporting thread is a worker" true
        (r.Exec.Tsan.proc2 = "worker");
      checkb "distinct threads" true (r.Exec.Tsan.tid1 <> r.Exec.Tsan.tid2))
    rs

(* --- qcheck: the two detectors agree ---------------------------------- *)

(* A well-formed program: [n_mut] mutexes, the addr->mutex map is
   [addr mod n_mut], and a worker is a list of segments, each taking one
   mutex and read-modify-writing only addresses it protects. Main forks
   the worker twice and joins both, so every segment races with its twin
   unless the locks order them. [drop] removes the lock/unlock pair of
   one segment. *)
let build_gen_prog ~n_mut ~segs ~drop =
  let w = proc "worker" in
  List.iteri
    (fun i (m, ks) ->
      let addrs = List.map (fun k -> m + (k * n_mut)) ks in
      let dropped = drop = Some i in
      if not dropped then lock_const w m;
      work_const w 3 (fun env ->
          List.iter
            (fun a -> env.Vm.Env.write a (env.Vm.Env.read a + 1))
            addrs);
      if not dropped then unlock_const w m)
    segs;
  exit_ w;
  let main = proc "main" in
  fork main ~group:0 ~proc:"worker" ~dst:1 (fun _ -> [||]);
  fork main ~group:0 ~proc:"worker" ~dst:2 (fun _ -> [||]);
  join_reg main 1;
  join_reg main 2;
  exit_ main;
  program ~mem_words:64 ~n_mutexes:n_mut ~entry:"main"
    [ finish main; finish w ]

let gen_shape =
  QCheck2.Gen.(
    int_range 1 3 >>= fun n_mut ->
    pair (return n_mut)
      (list_size (int_range 1 4)
         (pair
            (int_range 0 (n_mut - 1))
            (list_size (int_range 1 3) (int_range 0 4)))))

let case ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_wellformed_clean =
  case "race: well-formed locked program is clean on both sides"
    gen_shape
    (fun (n_mut, segs) ->
      let p = build_gen_prog ~n_mut ~segs ~drop:None in
      (not (static_racy p)) && dyn_races ~engine:`Pthreads p = [])

let prop_dropped_lock_flagged =
  case "race: dropping any one lock is flagged statically"
    QCheck2.Gen.(pair gen_shape (int_range 0 3))
    (fun ((n_mut, segs), which) ->
      let drop = Some (which mod List.length segs) in
      static_racy (build_gen_prog ~n_mut ~segs ~drop))

let prop_dynamic_implies_static =
  case "race: every dynamic report implies a static finding"
    QCheck2.Gen.(pair gen_shape (option (int_range 0 3)))
    (fun ((n_mut, segs), which) ->
      let drop = Option.map (fun i -> i mod List.length segs) which in
      let p = build_gen_prog ~n_mut ~segs ~drop in
      dyn_races ~engine:`Pthreads p = [] || static_racy p)

let suite =
  [
    Alcotest.test_case "unlocked write/write" `Quick unlocked_write_write;
    Alcotest.test_case "write/read under disjoint locks" `Quick
      write_read_disjoint_locks;
    Alcotest.test_case "race behind unresolved lock id" `Quick
      race_behind_top_lock;
    Alcotest.test_case "clean fixtures stay clean" `Quick clean_fixtures;
    Alcotest.test_case "probe fuel note" `Quick probe_fuel_note;
    Alcotest.test_case "workload suite: static race-free" `Quick
      workload_sweep_static;
    Alcotest.test_case "workload suite: dynamic race-free" `Quick
      workload_sweep_dynamic;
    Alcotest.test_case "disabled sanitizer is silent" `Quick
      disabled_reports_nothing;
    Alcotest.test_case "report sites make sense" `Quick
      report_sites_make_sense;
    prop_wellformed_clean;
    prop_dropped_lock_flagged;
    prop_dynamic_implies_static;
  ]
