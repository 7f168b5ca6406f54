(* GPRS-lint tests: one deliberately-defective builder fixture per
   diagnostic kind, asserting the exact [Diagnostic.kind] fires; clean
   programs (including every shipped workload) must produce no
   error-severity findings; admission must return an unsound program's
   errors so its callers refuse it. *)

open Vm.Builder

let checkb = Alcotest.(check bool)

let lint p = Lint.Check.program p
let has kind p = Lint.Check.has_kind kind (lint p)

let kinds_str p =
  lint p
  |> List.map (fun d -> Lint.Diagnostic.kind_label d.Lint.Diagnostic.kind)
  |> String.concat ", "

let expect kind name p =
  checkb
    (Printf.sprintf "%s reports %s (got: %s)" name
       (Lint.Diagnostic.kind_label kind)
       (kinds_str p))
    true (has kind p)

let expect_clean name p =
  let errs = Lint.Check.errors (lint p) in
  checkb
    (Printf.sprintf "%s lints clean (got: %s)" name
       (String.concat ", "
          (List.map
             (fun d -> Lint.Diagnostic.kind_label d.Lint.Diagnostic.kind)
             errs)))
    true (errs = [])

(* --- lock discipline -------------------------------------------------- *)

let double_lock () =
  let m = proc "main" in
  lock_const m 0;
  lock_const m 0;
  unlock_const m 0;
  unlock_const m 0;
  exit_ m;
  expect Lint.Diagnostic.Double_lock "double lock"
    (program ~n_mutexes:1 ~entry:"main" [ finish m ])

let unlock_without_lock () =
  let m = proc "main" in
  unlock_const m 0;
  exit_ m;
  expect Lint.Diagnostic.Unlock_without_lock "bare unlock"
    (program ~n_mutexes:1 ~entry:"main" [ finish m ])

let barrier_under_lock () =
  let m = proc "main" in
  lock_const m 0;
  barrier m 0;
  unlock_const m 0;
  exit_ m;
  expect Lint.Diagnostic.Lock_at_blocking "barrier under lock"
    (program ~n_mutexes:1 ~barrier_parties:[| 1 |] ~entry:"main" [ finish m ])

let exit_under_lock () =
  let m = proc "main" in
  lock_const m 0;
  exit_ m;
  expect Lint.Diagnostic.Lock_at_blocking "exit under lock"
    (program ~n_mutexes:1 ~entry:"main" [ finish m ])

let join_under_lock () =
  let w = proc "worker" in
  exit_ w;
  let m = proc "main" in
  fork m ~group:0 ~proc:"worker" ~dst:1 (fun _ -> [||]);
  lock_const m 0;
  join_reg m 1;
  unlock_const m 0;
  exit_ m;
  expect Lint.Diagnostic.Lock_at_blocking "join under lock"
    (program ~n_mutexes:1 ~entry:"main" [ finish m; finish w ])

let wait_without_mutex () =
  let m = proc "main" in
  cond_wait m ~c:0 ~m:0;
  exit_ m;
  expect Lint.Diagnostic.Wait_without_mutex "wait without mutex"
    (program ~n_mutexes:1 ~n_condvars:1 ~entry:"main" [ finish m ])

let inconsistent_locksets () =
  (* Register 0 is loaded from memory (statically unknown), so the branch
     cannot be folded: one path locks, the other does not, and the paths
     merge with different locksets. *)
  let m = proc "main" in
  work_const m 1 (fun env -> Vm.Env.set env 0 (env.Vm.Env.read 5));
  let merge = fresh_label m in
  if_to m (fun r -> r.(0) = 0) merge;
  lock_const m 0;
  bind m merge;
  unlock_const m 0;
  exit_ m;
  expect Lint.Diagnostic.Inconsistent_locksets "lock on one branch only"
    (program ~n_mutexes:1 ~entry:"main" [ finish m ])

let lock_order_cycle () =
  (* Classic ABBA: one worker takes 0 then 1, the other 1 then 0. *)
  let a = proc "a" in
  lock_const a 0;
  lock_const a 1;
  unlock_const a 1;
  unlock_const a 0;
  exit_ a;
  let b = proc "b" in
  lock_const b 1;
  lock_const b 0;
  unlock_const b 0;
  unlock_const b 1;
  exit_ b;
  let m = proc "main" in
  fork m ~group:0 ~proc:"a" ~dst:1 (fun _ -> [||]);
  fork m ~group:0 ~proc:"b" ~dst:2 (fun _ -> [||]);
  join_reg m 1;
  join_reg m 2;
  exit_ m;
  expect Lint.Diagnostic.Lock_order_cycle "ABBA lock order"
    (program ~n_mutexes:2 ~entry:"main" [ finish m; finish a; finish b ])

(* --- CPR / hybrid-recovery regions ------------------------------------ *)

let unmatched_cpr_begin () =
  let m = proc "main" in
  cpr_begin m;
  compute m 10;
  exit_ m;
  expect Lint.Diagnostic.Cpr_open_at_exit "cpr_begin never closed"
    (program ~entry:"main" [ finish m ])

let unmatched_cpr_end () =
  let m = proc "main" in
  cpr_end m;
  exit_ m;
  expect Lint.Diagnostic.Unmatched_cpr_end "cpr_end without begin"
    (program ~entry:"main" [ finish m ])

let nested_cpr () =
  let m = proc "main" in
  cpr_begin m;
  cpr_begin m;
  cpr_end m;
  cpr_end m;
  exit_ m;
  expect Lint.Diagnostic.Nested_cpr "nested cpr regions"
    (program ~entry:"main" [ finish m ])

let unprotected_nonstd_prog () =
  let m = proc "main" in
  nonstd_atomic m ~var:(fun _ -> 0) ~dst:1 (fun ~old _ -> old + 1);
  exit_ m;
  program ~n_atomics:1 ~entry:"main" [ finish m ]

let unprotected_nonstd () =
  expect Lint.Diagnostic.Unprotected_nonstd "nonstd atomic outside region"
    (unprotected_nonstd_prog ())

let protected_nonstd_clean () =
  expect_clean "nonstd atomic inside region"
    (Tprog.nonstd_region ~workers:2 ~iters:3 ())

(* --- plumbing --------------------------------------------------------- *)

let bad_sync_id () =
  let m = proc "main" in
  lock_const m 3;
  unlock_const m 3;
  exit_ m;
  expect Lint.Diagnostic.Bad_sync_id "mutex id out of range"
    (program ~n_mutexes:1 ~entry:"main" [ finish m ])

let unknown_fork_target () =
  let m = proc "main" in
  fork m ~group:0 ~proc:"nonesuch" ~dst:1 (fun _ -> [||]);
  exit_ m;
  expect Lint.Diagnostic.Unknown_fork_target "fork of unknown proc"
    (program ~entry:"main" [ finish m ])

let implicit_exit () =
  let m = proc "main" in
  compute m 10;
  (* no exit_: control falls off the end of the code array *)
  expect Lint.Diagnostic.Implicit_exit "missing exit"
    (program ~entry:"main" [ finish m ])

let barrier_mismatch () =
  (* Two distinct procs reach barrier 0, but parties is declared as 1. *)
  let w = proc "worker" in
  barrier w 0;
  exit_ w;
  let m = proc "main" in
  fork m ~group:0 ~proc:"worker" ~dst:1 (fun _ -> [||]);
  barrier m 0;
  join_reg m 1;
  exit_ m;
  expect Lint.Diagnostic.Barrier_mismatch "parties below reaching procs"
    (program ~barrier_parties:[| 1 |] ~entry:"main" [ finish m; finish w ])

(* --- id resolution ---------------------------------------------------- *)

let resolved_register_lock () =
  (* The lock id flows through a register assignment; constant
     propagation must resolve it so the aliased double lock is caught. *)
  let m = proc "main" in
  set_reg m 2 (fun _ -> 0);
  lock m (fun r -> r.(2));
  lock_const m 0;
  unlock_const m 0;
  unlock m (fun r -> r.(2));
  exit_ m;
  expect Lint.Diagnostic.Double_lock "double lock through register alias"
    (program ~n_mutexes:1 ~entry:"main" [ finish m ])

let dynamic_lock_no_false_positive () =
  (* Per-bucket locks chosen from memory (reverse-index style): the id is
     statically unresolvable and must degrade gracefully, not error. *)
  let m = proc "main" in
  work_const m 1 (fun env -> Vm.Env.set env 2 (env.Vm.Env.read 7 mod 4));
  lock m (fun r -> r.(2));
  compute m 10;
  unlock m (fun r -> r.(2));
  exit_ m;
  expect_clean "dynamic per-bucket lock"
    (program ~n_mutexes:4 ~entry:"main" [ finish m ])

let fork_args_propagate () =
  (* The child locks mutex r.(0), passed as a fork argument; arg-vector
     propagation must resolve it and flag the out-of-range id. *)
  let w = proc "worker" in
  lock w (fun r -> r.(0));
  unlock w (fun r -> r.(0));
  exit_ w;
  let m = proc "main" in
  fork m ~group:0 ~proc:"worker" ~dst:1 (fun _ -> [| 9 |]);
  join_reg m 1;
  exit_ m;
  expect Lint.Diagnostic.Bad_sync_id "fork-arg lock id out of range"
    (program ~n_mutexes:1 ~entry:"main" [ finish m; finish w ])

(* --- clean programs and the shipped suite ----------------------------- *)

let clean_fixtures () =
  expect_clean "locked_counter" (Tprog.locked_counter ~workers:3 ~iters:4 ());
  expect_clean "pipeline" (Tprog.pipeline ~blocks:6 ~consumers:2 ());
  expect_clean "barrier_phases" (Tprog.barrier_phases ~n:4 ());
  expect_clean "fork_join_sum" (Tprog.fork_join_sum ~workers:3 ())

let workload_sweep () =
  List.iter
    (fun spec ->
      let p =
        spec.Workloads.Workload.build ~n_contexts:4
          ~grain:Workloads.Workload.Default ~scale:0.1
      in
      expect_clean spec.Workloads.Workload.name p)
    Workloads.Suite.all

(* --- admission -------------------------------------------------------- *)

(* The one admission is strict: [Lint.Check.admit] returns the
   error-severity findings and every caller that would run the program
   refuses when they are non-empty. The engine itself never lints. *)

let strict_refuses () =
  let errs = Lint.Check.admit ~title:"t" (unprotected_nonstd_prog ()) in
  checkb "admission returns the unprotected nonstd atomic" true
    (Lint.Check.has_kind Lint.Diagnostic.Unprotected_nonstd errs);
  checkb "only error-severity findings" true
    (List.for_all (fun d -> d.Lint.Diagnostic.severity = Lint.Diagnostic.Error) errs)

let off_runs_anyway () =
  let p = unprotected_nonstd_prog () in
  let r =
    Gprs.Engine.run ~lint:`Off
      { Gprs.Engine.default_config with n_contexts = 2 }
      p
  in
  checkb "the engine runs a program lint rejects" false r.Exec.State.dnc

let strict_accepts_clean () =
  let p = Tprog.locked_counter ~workers:2 ~iters:3 () in
  Alcotest.(check int) "no error findings" 0
    (List.length (Lint.Check.admit ~title:"t" p));
  let r = Gprs.Engine.run { Gprs.Engine.default_config with n_contexts = 2 } p in
  checkb "admitted program runs" false r.Exec.State.dnc

(* --- renderer --------------------------------------------------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let renderer_smoke () =
  let m = proc "main" in
  lock_const m 0;
  exit_ m;
  let diags = lint (program ~n_mutexes:1 ~entry:"main" [ finish m ]) in
  let s = Format.asprintf "%a" (Lint.Render.pp ~title:"t") diags in
  checkb "table mentions the kind" true (contains s "lock-at-blocking");
  checkb "summary counts errors" true
    (contains (Lint.Render.summary diags) "error");
  let clean = Format.asprintf "%a" (Lint.Render.pp ~title:"t") [] in
  checkb "empty findings render as clean" true (contains clean "clean")

(* Each lint run owns its probe tables, so two domains linting every
   workload at once, in opposite orders, get the sequential answers. *)
let two_domains () =
  let progs =
    List.map
      (fun (spec : Workloads.Workload.spec) ->
        spec.Workloads.Workload.build ~n_contexts:4
          ~grain:Workloads.Workload.Default ~scale:0.05)
      Workloads.Suite.all
  in
  let lint_all ps =
    List.map (fun p -> (Lint.Check.program p, Lint.Check.program_facts p)) ps
  in
  let want = lint_all progs in
  let rounds f = Domain.spawn (fun () -> List.init 3 (fun _ -> f ())) in
  let fwd = rounds (fun () -> lint_all progs)
  and rev = rounds (fun () -> List.rev (lint_all (List.rev progs))) in
  List.iteri
    (fun i got -> checkb (Printf.sprintf "run %d equals the sequential lint" i) true (got = want))
    (Domain.join fwd @ Domain.join rev)

let suite =
  [
    Alcotest.test_case "double lock" `Quick double_lock;
    Alcotest.test_case "unlock without lock" `Quick unlock_without_lock;
    Alcotest.test_case "barrier under lock" `Quick barrier_under_lock;
    Alcotest.test_case "exit under lock" `Quick exit_under_lock;
    Alcotest.test_case "join under lock" `Quick join_under_lock;
    Alcotest.test_case "wait without mutex" `Quick wait_without_mutex;
    Alcotest.test_case "inconsistent locksets" `Quick inconsistent_locksets;
    Alcotest.test_case "lock-order cycle" `Quick lock_order_cycle;
    Alcotest.test_case "unmatched cpr begin" `Quick unmatched_cpr_begin;
    Alcotest.test_case "unmatched cpr end" `Quick unmatched_cpr_end;
    Alcotest.test_case "nested cpr" `Quick nested_cpr;
    Alcotest.test_case "unprotected nonstd" `Quick unprotected_nonstd;
    Alcotest.test_case "protected nonstd is clean" `Quick protected_nonstd_clean;
    Alcotest.test_case "bad sync id" `Quick bad_sync_id;
    Alcotest.test_case "unknown fork target" `Quick unknown_fork_target;
    Alcotest.test_case "implicit exit" `Quick implicit_exit;
    Alcotest.test_case "barrier mismatch" `Quick barrier_mismatch;
    Alcotest.test_case "register-alias lock resolves" `Quick resolved_register_lock;
    Alcotest.test_case "dynamic lock: no false positive" `Quick
      dynamic_lock_no_false_positive;
    Alcotest.test_case "fork args propagate" `Quick fork_args_propagate;
    Alcotest.test_case "clean fixtures" `Quick clean_fixtures;
    Alcotest.test_case "workload suite lints clean" `Quick workload_sweep;
    Alcotest.test_case "strict mode refuses" `Quick strict_refuses;
    Alcotest.test_case "lint off runs anyway" `Quick off_runs_anyway;
    Alcotest.test_case "strict mode accepts clean" `Quick strict_accepts_clean;
    Alcotest.test_case "renderer smoke" `Quick renderer_smoke;
    Alcotest.test_case "two domains lint at once" `Quick two_domains;
  ]
