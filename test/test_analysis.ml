(* Analysis-layer tests: the closed-form penalty model, the report
   renderer, smoke tests of the experiment drivers at tiny scale, and
   the host allocation of one run per driver leg. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let test_model_cpr_penalties () =
  (* Pc = 1/t * n * (tc + ts) *)
  checkf "Pc" 2.4 (Analysis.Model.cpr_checkpoint_penalty ~t:10.0 ~n:8 ~tc:1.0 ~ts:2.0);
  (* Pr = n * e * tr *)
  checkf "Pr" 16.0 (Analysis.Model.cpr_restart_penalty ~n:8 ~e:2.0 ~tr:1.0)

let test_model_gprs_penalties () =
  checkf "no coordination" 1.6
    (Analysis.Model.gprs_checkpoint_penalty ~t:10.0 ~n:8 ~ts:2.0);
  checkf "selective Pr" 2.0 (Analysis.Model.gprs_restart_penalty ~e:2.0 ~tr:1.0);
  checkf "ordering Pg" 0.8 (Analysis.Model.gprs_ordering_penalty ~t:10.0 ~n:8 ~tg:1.0)

let test_model_max_rates_scale () =
  (* The paper's scalability claim: GPRS's tolerable rate is n x CPR's. *)
  let tr = 0.5 in
  checkf "cpr flat" 2.0 (Analysis.Model.cpr_max_rate ~tr);
  checkf "gprs scales" 48.0 (Analysis.Model.gprs_max_rate ~n:24 ~tr);
  checkf "hw in between" 24.0 (Analysis.Model.hw_max_rate ~n:24 ~nc:2 ~tr);
  checkb "ordering" true
    (Analysis.Model.cpr_max_rate ~tr
     <= Analysis.Model.hw_max_rate ~n:24 ~nc:2 ~tr
    && Analysis.Model.hw_max_rate ~n:24 ~nc:2 ~tr
       <= Analysis.Model.gprs_max_rate ~n:24 ~tr)

let test_model_restart_delay () =
  checkf "tr = t + tw" 1.5 (Analysis.Model.restart_delay ~t:1.0 ~tw:0.5)

let test_table1_shape () =
  let rows = Analysis.Experiments.table1 () in
  check "five rows" 5 (List.length rows);
  List.iter (fun r -> check "eight columns" 8 (List.length r)) rows;
  checkb "gprs row last" true
    (match List.rev rows with
    | last :: _ -> List.hd last = "GPRS (this work)"
    | [] -> false)

let test_harmonic_mean () =
  checkf "hm of equal" 2.0 (Analysis.Report.harmonic_mean [ 2.0; 2.0; 2.0 ]);
  checkf "hm classic" 1.2 (Analysis.Report.harmonic_mean [ 1.0; 1.5 ]);
  checkb "hm of empty is nan" true (Float.is_nan (Analysis.Report.harmonic_mean []))

let test_hm_row_skips_dnc () =
  let bar l v dnc = { Analysis.Report.label = l; value = v; dnc } in
  let fig =
    {
      Analysis.Report.id = "t";
      title = "t";
      rows =
        [
          { Analysis.Report.row_name = "a"; bars = [ bar "X" 1.0 false ] };
          { Analysis.Report.row_name = "b"; bars = [ bar "X" 0.0 true ] };
          { Analysis.Report.row_name = "c"; bars = [ bar "X" 1.0 false ] };
        ];
      notes = [];
    }
  in
  match Analysis.Report.hm_row fig with
  | Some { Analysis.Report.bars = [ b ]; _ } ->
    checkf "dnc skipped" 1.0 b.Analysis.Report.value
  | _ -> Alcotest.fail "expected one hm bar"

let test_render_table () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Analysis.Report.render_table ppf ~title:"T" ~header:[ "a"; "bb" ]
    [ [ "x"; "1" ]; [ "yyy"; "22" ] ];
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  let contains sub =
    let ls = String.length s and lsub = String.length sub in
    let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
    go 0
  in
  checkb "has title" true (String.length s > 0 && String.sub s 0 1 = "T");
  checkb "contains row" true (contains "yyy");
  checkb "contains header" true (contains "bb")

let test_bar_chart_renders () =
  let bar l v dnc = { Analysis.Report.label = l; value = v; dnc } in
  let fig =
    {
      Analysis.Report.id = "Fig. X";
      title = "demo";
      rows =
        [
          {
            Analysis.Report.row_name = "prog";
            bars = [ bar "A" 1.0 false; bar "B" 10.0 false; bar "C" 0.0 true ];
          };
        ];
      notes = [];
    }
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Analysis.Report.render_bar_chart ppf fig;
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  let contains sub =
    let ls = String.length s and lsub = String.length sub in
    let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
    go 0
  in
  checkb "has hashes" true (contains "#");
  checkb "clips large bars" true (contains ">");
  checkb "marks dnc" true (contains "DNC")

let tiny_cfg =
  {
    Analysis.Experiments.default_cfg with
    Analysis.Experiments.n_contexts = 4;
    scale = 0.05;
  }

let test_table2_shape () =
  let rows = Analysis.Experiments.table2 tiny_cfg in
  check "ten programs" 10 (List.length rows);
  List.iter (fun r -> check "seven columns" 7 (List.length r)) rows;
  (* Sub-thread counts are positive integers. *)
  List.iter
    (fun r ->
      let subs = int_of_string (List.nth r 6) in
      checkb "positive subs" true (subs > 0))
    rows

let test_fig9_shape () =
  let fig = Analysis.Experiments.fig9 tiny_cfg in
  check "four programs" 4 (List.length fig.Analysis.Report.rows);
  List.iter
    (fun (r : Analysis.Report.row) -> check "two bars" 2 (List.length r.Analysis.Report.bars))
    fig.Analysis.Report.rows

let test_pool_map_order () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "order preserved with domains"
    (List.map (fun x -> x * x) xs)
    (Analysis.Pool.map ~jobs:4 (fun x -> x * x) xs);
  Alcotest.(check (list int))
    "sequential path agrees"
    (List.map succ xs)
    (Analysis.Pool.map ~jobs:1 succ xs);
  Alcotest.(check (list int)) "more jobs than items" [ 2 ]
    (Analysis.Pool.map ~jobs:8 (fun x -> x + 1) [ 1 ]);
  Alcotest.(check (list int)) "empty input" [] (Analysis.Pool.map ~jobs:4 succ [])

let test_pool_first_error_wins () =
  Alcotest.check_raises "earliest item's exception re-raised"
    (Failure "boom3") (fun () ->
      ignore
        (Analysis.Pool.map ~jobs:3
           (fun x -> if x >= 3 then failwith (Printf.sprintf "boom%d" x) else x)
           [ 0; 1; 2; 3; 4; 5 ]))

let strip_figure (f : Analysis.Report.figure) =
  List.map
    (fun (r : Analysis.Report.row) ->
      ( r.Analysis.Report.row_name,
        List.map
          (fun (b : Analysis.Report.bar) ->
            (b.Analysis.Report.label, b.Analysis.Report.value, b.Analysis.Report.dnc))
          r.Analysis.Report.bars ))
    f.Analysis.Report.rows

let test_parallel_rows_identical () =
  (* Same seed, any [jobs]: drivers must produce bit-identical rows. *)
  let seq = Analysis.Experiments.fig9 { tiny_cfg with Analysis.Experiments.jobs = 1 } in
  let par = Analysis.Experiments.fig9 { tiny_cfg with Analysis.Experiments.jobs = 2 } in
  checkb "fig9 rows identical for jobs=1 and jobs=2" true
    (strip_figure seq = strip_figure par);
  (* fig11 regroups its two series into one task per context count. *)
  let fig11 jobs =
    Analysis.Experiments.fig11 ~contexts:[ 1; 2; 4 ]
      { tiny_cfg with Analysis.Experiments.jobs }
  in
  checkb "fig11 identical for jobs=1 and jobs=2" true (fig11 1 = fig11 2)

let test_prepared_once_per_row () =
  (* A seed no other test uses, so every baseline misses the cache. *)
  let cfg = { tiny_cfg with Analysis.Experiments.seed = 11 } in
  let analyses f =
    let before = Vm.Block.analyses () in
    ignore (f ());
    Vm.Block.analyses () - before
  in
  check "fig11: one program per context count" 2
    (analyses (fun () ->
         Analysis.Experiments.fig11 ~contexts:[ 1; 4 ] ~rates:[ 100.0; 400.0 ] cfg));
  check "fig9: the fine program and the default baseline per row" 8
    (analyses (fun () -> Analysis.Experiments.fig9 cfg));
  check "fig9 again: baselines cached" 4
    (analyses (fun () -> Analysis.Experiments.fig9 cfg))

let scenario ?(grain = "default") ?(rate = 0.0) ~engine ~contexts ~scale
    workload =
  {
    Run.id = "";
    workload;
    engine;
    ordering = "balance-aware";
    contexts;
    scale;
    grain;
    seed = 1;
    rate;
    interval = 0.0;
    want_stats = false;
  }

let test_cost_ablations_ordered () =
  (* With more cost components charged, execution can only get slower. *)
  let scn = scenario ~engine:"gprs" ~contexts:4 ~scale:0.05 "re" in
  let p = Run.prepare scn in
  let t costs =
    (Gprs.Engine.run ~blocks:p.Run.blocks
       { (Run.gprs_config scn) with costs }
       p.Run.program)
      .Exec.State.sim_cycles
  in
  let or_only = t Analysis.Experiments.costs_order_only in
  let or_rol = t Analysis.Experiments.costs_order_rol in
  let full = t Vm.Costs.default in
  checkb
    (Printf.sprintf "or<=or+rol<=full (%d %d %d)" or_only or_rol full)
    true
    (or_only <= or_rol && or_rol <= full)

(* Host allocation per run, counted exactly: minor-heap words allocated
   on the main domain by one leg (prepare, GPRS lint, engine run) at 8
   contexts, seed 1, after one warm-up run of the same leg. The
   simulator is deterministic, so the count is the same in every
   process. Each leg's bound is max(1.1 b, b + 2,000) words, with b the
   leg's count when the gate was recorded. [Gc.minor_words] is read
   rather than [Gc.quick_stat]: on OCaml 5 the latter's [minor_words]
   moves only at minor collections, so it reads 0 for a leg that
   allocates less than a minor heap. The cycle budget (30x the
   scenario's fault-free Pthreads run) keeps a livelock a failure, not a
   hang.

   Retained memory: the words the engine run puts in the major heap,
   promoted plus allocated there directly, between a [Gc.minor ()]
   before the run and one after it (which also promotes the result).
   Emptying the minor heap first makes the collections inside the run
   fall at the same allocation points. [Gc.counters] is read rather
   than [Gc.quick_stat], whose [major_words] leaves out direct
   allocations not yet folded in by a major slice (lint's, made before
   the run, landed in one leg or the next depending on that). The
   counts repeat exactly except the deep leg's, which moves by up to 3%
   with the tests run before it in the process. Each leg's bound is
   max(1.1 r, r + 2,000) words, with r the leg's count when recorded;
   the comments give the count before the GPRS history buffers became
   one undo log per thread and simulated memory grew to what a run
   writes. *)
let test_allocation_per_run () =
  (* The gate measures the production configuration: the race
     sanitizer's shadow state and an armed fault point's work are not
     the engine's, so both are off around each leg whatever the
     environment asks for, and restored after it. *)
  let production f =
    let tsan = Exec.Tsan.enabled () in
    Exec.Tsan.set_enabled false;
    Faults.Points.reset_all ();
    Fun.protect f ~finally:(fun () ->
        Exec.Tsan.set_enabled tsan;
        ignore (Faults.Points.arm_from_env ()))
  in
  let leg name ~baseline ~retained scn =
    (* The program's fault-free Pthreads cycles give the budget and
       CPR's checkpoint interval (1/25 of them, as the drivers use). *)
    let base =
      let s = { scn with Run.engine = "pthreads" } in
      let p = Run.prepare s in
      (Run.exec ~blocks:p.Run.blocks s p.Run.program).Exec.State.sim_cycles
    in
    let max_cycles = Some (30 * base) in
    let scn =
      {
        scn with
        Run.interval =
          Sim.Time.to_seconds
            ~cycles_per_second:Vm.Costs.default.Vm.Costs.cycles_per_second
            (Stdlib.max 1 (base / 25));
      }
    in
    (* Prepare (and lint) the leg; returns its engine run. *)
    let prepare () =
      let p = Run.prepare scn in
      match scn.Run.engine with
      | "cpr" ->
        fun () ->
          Cpr.run ~blocks:p.Run.blocks
            { (Run.cpr_config scn) with max_cycles }
            p.Run.program
      | "gprs" ->
        ignore (Lint.Check.admit ~title:"GPRS-lint" p.Run.program);
        fun () ->
          Gprs.Engine.run ~blocks:p.Run.blocks
            { (Run.gprs_config scn) with max_cycles }
            p.Run.program
      | _ -> fun () -> Run.exec ~blocks:p.Run.blocks scn p.Run.program
    in
    let words, major, r =
      production (fun () ->
          ignore ((prepare ()) ());
          let before = Gc.minor_words () in
          let engine = prepare () in
          Gc.minor ();
          let _, _, major0 = Gc.counters () in
          let r = engine () in
          Gc.minor ();
          let _, _, major1 = Gc.counters () in
          (Gc.minor_words () -. before, major1 -. major0, r))
    in
    checkb (name ^ " completes") false r.Exec.State.dnc;
    let bound = Float.max (1.1 *. baseline) (baseline +. 2_000.0) in
    checkb
      (Printf.sprintf "%s: %.0f minor words <= %.0f" name words bound)
      true (words <= bound);
    let bound = Float.max (1.1 *. retained) (retained +. 2_000.0) in
    checkb
      (Printf.sprintf "%s: %.0f words retained <= %.0f" name major bound)
      true (major <= bound)
  in
  let at8 = scenario ~contexts:8 ~scale:0.05 in
  leg "fig8a gprs(wordcount)" ~baseline:69604.0 ~retained:2783.0 (* 2782 *)
    (at8 ~engine:"gprs" "wordcount");
  leg "fig8b gprs(canneal,fine)" ~baseline:93505.0 ~retained:2574.0 (* 2573 *)
    (at8 ~engine:"gprs" ~grain:"fine" "canneal");
  leg "fig11 gprs(pbzip2,faults)" ~baseline:75761.0
    ~retained:19935.0 (* 68370 *)
    (scenario ~engine:"gprs" ~contexts:8 ~scale:0.04 ~rate:60.0 "pbzip2");
  (* The deep ROL: 8,138 sub-threads live at once. *)
  leg "gprs(dedup,deep)" ~baseline:2491799.0 ~retained:862472.0 (* 1153252 *)
    (scenario ~engine:"gprs" ~contexts:8 ~scale:1.0 "dedup");
  leg "cpr(re,faults)" ~baseline:55041.0 ~retained:4949.0 (* 4948 *)
    (at8 ~engine:"cpr" ~rate:40.0 "re");
  leg "pthreads(wordcount)" ~baseline:36860.0 ~retained:2726.0 (* 2725 *)
    (at8 ~engine:"pthreads" "wordcount")

let suite =
  [
    Alcotest.test_case "model: cpr penalties" `Quick test_model_cpr_penalties;
    Alcotest.test_case "model: gprs penalties" `Quick test_model_gprs_penalties;
    Alcotest.test_case "model: max rates scale" `Quick test_model_max_rates_scale;
    Alcotest.test_case "model: restart delay" `Quick test_model_restart_delay;
    Alcotest.test_case "table1 shape" `Quick test_table1_shape;
    Alcotest.test_case "harmonic mean" `Quick test_harmonic_mean;
    Alcotest.test_case "hm row skips dnc" `Quick test_hm_row_skips_dnc;
    Alcotest.test_case "render table" `Quick test_render_table;
    Alcotest.test_case "render bar chart" `Quick test_bar_chart_renders;
    Alcotest.test_case "pool map order" `Quick test_pool_map_order;
    Alcotest.test_case "pool first error wins" `Quick test_pool_first_error_wins;
    Alcotest.test_case "table2 shape" `Slow test_table2_shape;
    Alcotest.test_case "parallel rows identical" `Slow test_parallel_rows_identical;
    Alcotest.test_case "drivers prepare each program once per row" `Slow
      test_prepared_once_per_row;
    Alcotest.test_case "fig9 shape" `Slow test_fig9_shape;
    Alcotest.test_case "cost ablations ordered" `Slow test_cost_ablations_ordered;
    Alcotest.test_case "allocation per run within the recorded bound" `Slow
      test_allocation_per_run;
  ]
