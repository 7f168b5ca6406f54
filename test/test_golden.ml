(* Golden runs. Every engine's results are pinned to a committed table
   ([fixtures/golden_runs.txt]): 10 workloads x {pthreads, cpr, gprs} x
   {rate 0, rate 100} at 4 contexts, scale 0.05, seed 1 — the output
   digest, simulated cycles, DNC flag and a hash of the run stats. The
   reference-vs-production comparison (test_reference.ml) shares the
   engines' dispatch core and control-prefix fetch, so it cannot catch a
   fault in them; this table can.

   A deliberate change of results edits the fixture by hand (the failing
   case writes the full actual table to [golden_runs.actual] in the
   test's build directory) and says why in CHANGES.md. *)

let fixture = "fixtures/golden_runs.txt"
let engines = [ "pthreads"; "cpr"; "gprs" ]
let rates = [ 0.0; 100.0 ]

type row = {
  workload : string;
  engine : string;
  rate : float;
  digest : string;
  cycles : int;
  dnc : bool;
  stats : string;  (** hex MD5 of the run stats, floats printed exactly *)
}

let key r = Printf.sprintf "%s %s %g" r.workload r.engine r.rate

let to_line r =
  Printf.sprintf "%s %s %d %b %s" (key r) r.digest r.cycles r.dnc r.stats

let of_line line =
  Scanf.sscanf line "%s %s %f %s %d %B %s"
    (fun workload engine rate digest cycles dnc stats ->
      { workload; engine; rate; digest; cycles; dnc; stats })

let stats_hash stats =
  stats
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let run_row workload engine rate =
  let scn =
    {
      Server.Scenario.id = "";
      workload;
      engine;
      ordering = "balance-aware";
      contexts = 4;
      scale = 0.05;
      grain = "default";
      seed = 1;
      rate;
      interval = 0.05;
      want_stats = true;
    }
  in
  let spec, program = Server.Scenario.build_program scn in
  let o = Server.Scenario.run ~spec ~program scn in
  {
    workload;
    engine;
    rate;
    digest = o.Server.Scenario.digest;
    cycles = o.Server.Scenario.sim_cycles;
    dnc = o.Server.Scenario.dnc;
    stats = stats_hash o.Server.Scenario.stats;
  }

let actual () =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun e -> List.map (fun r -> run_row w e r) rates)
        engines)
    Workloads.Suite.names

let expected () =
  In_channel.with_open_text fixture In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map of_line

let header =
  "# workload engine rate digest sim_cycles dnc stats_md5 (4 contexts, scale \
   0.05, seed 1)"

let golden () =
  let got = actual () in
  let want = expected () in
  let mismatches =
    List.filter_map
      (fun g ->
        match List.find_opt (fun w -> key w = key g) want with
        | Some w when w = g -> None
        | Some w ->
          Some (Printf.sprintf "  want %s\n  got  %s" (to_line w) (to_line g))
        | None -> Some (Printf.sprintf "  want (no row)\n  got  %s" (to_line g)))
      got
  in
  if mismatches <> [] || List.length want <> List.length got then begin
    Out_channel.with_open_text "golden_runs.actual" (fun oc ->
        output_string oc (String.concat "\n" (header :: List.map to_line got));
        output_char oc '\n');
    Alcotest.failf "%d of %d golden rows differ (fixture has %d rows):\n%s"
      (List.length mismatches) (List.length got) (List.length want)
      (String.concat "\n" mismatches)
  end

(* The paper's oracle: every completed run, on every engine and at every
   fault rate, produces the fault-free Pthreads output. *)
let oracle () =
  let rows = expected () in
  List.iter
    (fun r ->
      if not r.dnc then
        match
          List.find_opt
            (fun p -> p.workload = r.workload && p.engine = "pthreads" && p.rate = 0.0)
            rows
        with
        | Some p ->
          Alcotest.(check string) (key r ^ " digest = pthreads") p.digest r.digest
        | None -> Alcotest.failf "no pthreads row for %s" r.workload)
    rows

(* Paper drivers and lint, pinned the same way. [golden_paper.txt] is the
   rendered table2, fig8a, fig8b, fig9, fig10 and fig11 (contexts 1 and
   4) at 4 contexts, scale 0.05, seed 1; [golden_lint.txt] is one MD5 of
   [Lint.Check.program_facts] (diagnostics and facts) per workload x
   grain x {4, 24} contexts at scale 0.1. Both compare byte for byte; a
   mismatch writes the whole actual text next to the test binary. *)

let check_text ~fixture ~actual got =
  let want = In_channel.with_open_text fixture In_channel.input_all in
  if got <> want then begin
    Out_channel.with_open_text actual (fun oc -> output_string oc got);
    let lines s = String.split_on_char '\n' s in
    let rec first_diff i = function
      | w :: ws, g :: gs -> if w = g then first_diff (i + 1) (ws, gs) else (i, w, g)
      | w :: _, [] -> (i, w, "(end)")
      | [], g :: _ -> (i, "(end)", g)
      | [], [] -> (i, "", "")
    in
    let i, w, g = first_diff 1 (lines want, lines got) in
    Alcotest.failf "%s differs (whole text in %s); first at line %d:\n  want %s\n  got  %s"
      fixture actual i w g
  end

let render_paper () =
  let buf = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer buf in
  let cfg =
    {
      Analysis.Experiments.default_cfg with
      Analysis.Experiments.n_contexts = 4;
      scale = 0.05;
      seed = 1;
    }
  in
  Analysis.Report.render_table ppf ~title:"table2"
    ~header:[ "Program"; "Comp."; "Sync."; "Crit."; "Exec(s)"; "Sub-size"; "#Subs" ]
    (Analysis.Experiments.table2 cfg);
  List.iter
    (fun driver -> Analysis.Report.render_figure ppf (driver cfg))
    Analysis.Experiments.[ fig8a; fig8b; fig9; fig10 ];
  Analysis.Experiments.render_fig11 ppf
    (Analysis.Experiments.fig11 ~contexts:[ 1; 4 ] cfg);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let paper () =
  check_text ~fixture:"fixtures/golden_paper.txt" ~actual:"golden_paper.actual"
    (render_paper ())

let lint_digest program =
  Marshal.to_string (Lint.Check.program_facts program) [ Marshal.No_sharing ]
  |> Digest.string |> Digest.to_hex

let render_lint () =
  let line (spec : Workloads.Workload.spec) grain n =
    let program =
      spec.Workloads.Workload.build ~n_contexts:n ~grain ~scale:0.1
    in
    Printf.sprintf "%s %s %d %s\n" spec.Workloads.Workload.name
      (match grain with
      | Workloads.Workload.Default -> "default"
      | Workloads.Workload.Fine -> "fine")
      n (lint_digest program)
  in
  "# workload grain contexts md5(Lint.Check.program_facts) (scale 0.1)\n"
  ^ String.concat ""
      (List.concat_map
         (fun spec ->
           List.concat_map
             (fun grain -> List.map (line spec grain) [ 4; 24 ])
             Workloads.Workload.[ Default; Fine ])
         Workloads.Suite.all)

let lint () =
  check_text ~fixture:"fixtures/golden_lint.txt" ~actual:"golden_lint.actual"
    (render_lint ())

(* Deep-ROL runs. [golden_runs.txt] stays at 4 contexts and scale 0.05,
   where the ROL, the sub-thread pool and the live WAL stay shallow; at 8
   contexts and scale 1.0 thousands of sub-threads are live at once
   (dedup peaks above 8,000). [golden_deep.txt] pins, byte for byte:
   - GPRS fault-free on every workload x grain at 8 contexts, scale 1.0,
     seed 1: digest, sim cycles, DNC and the run-stats MD5;
   - the MD5 of the stable WAL image of every workload at rates 0 and
     100, 8 contexts, scale 0.2, seed 3. *)

let grain_name = function
  | Workloads.Workload.Default -> "default"
  | Workloads.Workload.Fine -> "fine"

let deep_run (spec : Workloads.Workload.spec) grain =
  let scn =
    {
      Server.Scenario.id = "";
      workload = spec.Workloads.Workload.name;
      engine = "gprs";
      ordering = "balance-aware";
      contexts = 8;
      scale = 1.0;
      grain = grain_name grain;
      seed = 1;
      rate = 0.0;
      interval = 0.05;
      want_stats = true;
    }
  in
  let spec, program = Server.Scenario.build_program scn in
  let o = Server.Scenario.run ~spec ~program scn in
  Printf.sprintf "run %s %s %s %d %b %s\n" scn.Server.Scenario.workload
    scn.Server.Scenario.grain o.Server.Scenario.digest
    o.Server.Scenario.sim_cycles o.Server.Scenario.dnc
    (stats_hash o.Server.Scenario.stats)

let deep_wal (spec : Workloads.Workload.spec) rate =
  let program =
    spec.Workloads.Workload.build ~n_contexts:8
      ~grain:Workloads.Workload.Default ~scale:0.2
  in
  let image = ref "" in
  ignore
    (Gprs.Engine.run ~wal_out:image
       {
         Gprs.Engine.default_config with
         n_contexts = 8;
         seed = 3;
         wal_stable = true;
         injector = Faults.Injector.config ~seed:3 rate;
       }
       program);
  Printf.sprintf "wal %s %g %d %s\n" spec.Workloads.Workload.name rate
    (String.length !image)
    (Digest.to_hex (Digest.string !image))

let render_deep () =
  "# run workload grain digest sim_cycles dnc stats_md5 (gprs, 8 contexts, \
   scale 1.0, seed 1)\n"
  ^ String.concat ""
      (List.concat_map
         (fun spec ->
           List.map (deep_run spec) Workloads.Workload.[ Default; Fine ])
         Workloads.Suite.all)
  ^ "# wal workload rate image_bytes image_md5 (gprs, 8 contexts, scale 0.2, \
     seed 3)\n"
  ^ String.concat ""
      (List.concat_map
         (fun spec -> List.map (deep_wal spec) [ 0.0; 100.0 ])
         Workloads.Suite.all)

let deep () =
  check_text ~fixture:"fixtures/golden_deep.txt" ~actual:"golden_deep.actual"
    (render_deep ())

(* Cold restart. The crash sweeps only tell a recovered run from a
   failed one; [golden_crash.txt] pins what each resumed run produces.
   Per workload, contexts and scale (seed 3) and per ordering scheme, it
   crashes the run at the middle LSN of each of 8 equal strata of the
   pilot's WAL records, cold-recovers and resumes, and records the
   digest, sim cycles, DNC and run-stats MD5 — or [corrupt] if recovery
   refuses the image, [deadlock] if the resumed run wedges. The table
   pins today's output, wrong rows included: it is not the oracle. *)

let crash_schemes =
  Gprs.Order.[ ("rr", Round_robin); ("bal", Balance_aware); ("wt", Weighted) ]

let crash_configs =
  List.map (fun w -> (w, 4, 0.05)) Workloads.Suite.names
  @ List.map
      (fun w -> (w, 8, 0.2))
      [ "barnes-hut"; "canneal"; "dedup"; "pbzip2" ]

let crash_rows (name, contexts, scale) =
  let spec = Workloads.Suite.find name in
  let program =
    spec.Workloads.Workload.build ~n_contexts:contexts
      ~grain:Workloads.Workload.Default ~scale
  in
  let resumed lsn cfg =
    match
      Gprs.Engine.run
        { cfg with Gprs.Engine.crash_lsn = Some lsn }
        program
    with
    | _ -> "no-crash"
    | exception Gprs.Engine.Crashed dump -> (
      match Recovery.recover dump with
      | exception Wal.Corrupt _ -> "corrupt"
      | _, _, resume -> (
        match resume () with
        | exception Exec.State.Deadlock _ -> "deadlock"
        | r ->
          Printf.sprintf "%s %d %b %s"
            (spec.Workloads.Workload.digest r)
            r.Exec.State.sim_cycles r.Exec.State.dnc
            (stats_hash (Sim.Stats.to_assoc r.Exec.State.run_stats))))
  in
  List.concat_map
    (fun (scheme, ordering) ->
      let cfg =
        {
          Gprs.Engine.default_config with
          n_contexts = contexts;
          seed = 3;
          ordering;
        }
      in
      let image, _ =
        Recovery.pilot ~cfg
          { Run.spec; program; blocks = Vm.Block.analyze program }
      in
      let points = Array.of_list (Recovery.analyze image).Recovery.points in
      let n = Array.length points in
      List.init 8 (fun i -> fst points.(((2 * i) + 1) * n / 16))
      |> List.sort_uniq compare
      |> List.map (fun lsn ->
             Printf.sprintf "crash %s %d %g %s %d %s\n" name contexts scale
               scheme lsn (resumed lsn cfg)))
    crash_schemes

let render_crash () =
  "# crash workload contexts scale scheme lsn then digest sim_cycles dnc \
   stats_md5 after resume, or corrupt/deadlock (gprs, seed 3)\n"
  ^ String.concat "" (List.concat_map crash_rows crash_configs)

let crash () =
  check_text ~fixture:"fixtures/golden_crash.txt" ~actual:"golden_crash.actual"
    (render_crash ())

(* The paper's machine size. The tables above run at 4 and 8 contexts,
   but the paper and the drivers run at 24, where the engines' per-event
   work over the contexts is widest. [golden_n24.txt] pins, at scale
   0.05, seed 1 and the drivers' budget (30x the fault-free Pthreads
   cycles), P-CPR and GPRS at Fig. 10's high rate on every workload and
   pbzip2 GPRS at Fig. 11's top rung (64 exceptions per run) at 1 and 24
   contexts: digest, sim cycles, DNC and the run-stats MD5. Rates and the
   CPR interval follow the drivers: [k] exceptions and 25 checkpoints per
   fault-free run. Like the crash table, it pins today's output, wrong
   rows included (barnes-hut under GPRS differs from Pthreads here). *)

let n24_row name ~engine ~contexts ~k =
  let scn =
    {
      Run.id = "";
      workload = name;
      engine = "pthreads";
      ordering = "balance-aware";
      contexts;
      scale = 0.05;
      grain = "default";
      seed = 1;
      rate = 0.0;
      interval = 0.0;
      want_stats = true;
    }
  in
  let p = Run.prepare scn in
  let base =
    (Run.exec ~blocks:p.Run.blocks scn p.Run.program).Exec.State.sim_cycles
  in
  let seconds =
    Sim.Time.to_seconds
      ~cycles_per_second:Vm.Costs.default.Vm.Costs.cycles_per_second
  in
  let scn =
    {
      scn with
      engine;
      rate = k /. seconds base;
      interval = seconds (Stdlib.max 1 (base / 25));
    }
  in
  let max_cycles =
    Some (Analysis.Experiments.default_cfg.Analysis.Experiments.dnc_factor * base)
  in
  let r =
    match engine with
    | "cpr" ->
      Cpr.run ~blocks:p.Run.blocks
        { (Run.cpr_config scn) with max_cycles }
        p.Run.program
    | _ ->
      Gprs.Engine.run ~blocks:p.Run.blocks
        { (Run.gprs_config scn) with max_cycles }
        p.Run.program
  in
  Printf.sprintf "n24 %s %s %d %g %s %d %b %s\n" name engine contexts k
    (p.Run.spec.Workloads.Workload.digest r)
    r.Exec.State.sim_cycles r.Exec.State.dnc
    (stats_hash (Sim.Stats.to_assoc r.Exec.State.run_stats))

let render_n24 () =
  "# n24 workload engine contexts exceptions_per_run digest sim_cycles dnc \
   stats_md5 (scale 0.05, seed 1, budget 30x)\n"
  ^ String.concat ""
      (List.concat_map
         (fun name ->
           let k = snd (Analysis.Experiments.fig10_exceptions name) in
           List.map
             (fun engine -> n24_row name ~engine ~contexts:24 ~k)
             [ "cpr"; "gprs" ])
         Workloads.Suite.names)
  ^ String.concat ""
      (List.map
         (fun contexts -> n24_row "pbzip2" ~engine:"gprs" ~contexts ~k:64.0)
         [ 1; 24 ])

let n24 () =
  check_text ~fixture:"fixtures/golden_n24.txt" ~actual:"golden_n24.actual"
    (render_n24 ())

let suite =
  [
    Alcotest.test_case "runs match the committed table" `Quick golden;
    Alcotest.test_case "completed rows carry the pthreads digest" `Quick oracle;
    Alcotest.test_case "paper drivers match the committed rendering" `Quick paper;
    Alcotest.test_case "lint facts match the committed digests" `Quick lint;
    Alcotest.test_case "deep-ROL runs and WAL images match the committed digests"
      `Quick deep;
    Alcotest.test_case "cold restarts match the committed digests" `Quick crash;
    Alcotest.test_case "24-context runs match the committed digests" `Quick n24;
  ]
