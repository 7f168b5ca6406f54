(* The in-process workloads: paper-eval, sim-steady, sim-faulty and
   crash-recovery. They drive the system only through its public entry
   points, on one domain, and check every answer against a reference:
   a completed run's digest must equal the Pthreads digest of the same
   program (DNC is an outcome, not a failure). Every pass repeats the
   same operations on the same inputs (see Common.best). *)

open Common
module W = Workloads.Workload

type prog = {
  label : string;  (* "canneal/default" *)
  spec : W.spec;
  program : Vm.Isa.program;
  blocks : Vm.Block.t;
  ref_digest : string;
  ref_cycles : int;
}

let grain_name = function W.Default -> "default" | W.Fine -> "fine"

(* The set-up layers every engine run needs: build, pre-decode and
   superblock compilation, lint admission. *)
let prepare ~contexts ~scale (spec : W.spec) grain =
  let program =
    Spans.call "Workloads.build" (fun () ->
        spec.W.build ~n_contexts:contexts ~grain ~scale)
  in
  let blocks = Spans.call "Vm.Block.analyze" (fun () -> Vm.Block.analyze program) in
  let diags = Spans.call "Lint.Check.program" (fun () -> Lint.Check.program program) in
  if Lint.Check.has_errors diags then
    failwith (Printf.sprintf "%s/%s: lint reports errors" spec.W.name (grain_name grain));
  Hashtbl.replace superblocks
    (Printf.sprintf "%s/%s/%d/%g" spec.W.name (grain_name grain) contexts scale)
    (Vm.Block.n_compiled blocks);
  (program, blocks)

let pthreads ~contexts ~seed ?max_cycles ?blocks program =
  Spans.timed "Exec.Baseline.run" (fun () ->
      Exec.Baseline.run ?blocks
        { Exec.Baseline.default_config with n_contexts = contexts; seed; max_cycles }
        program)

let with_reference ~contexts ~seed (spec : W.spec) grain (program, blocks) =
  let r, _ = pthreads ~contexts ~seed ~blocks program in
  {
    label = spec.W.name ^ "/" ^ grain_name grain;
    spec;
    program;
    blocks;
    ref_digest = spec.W.digest r;
    ref_cycles = r.Exec.State.sim_cycles;
  }

let seconds_of cycles =
  Sim.Time.to_seconds ~cycles_per_second:Vm.Costs.default.Vm.Costs.cycles_per_second
    cycles

(* Fault rates are exceptions per simulated second. *)
type engine = Pthreads | Gprs of float | Cpr of float

let engine_name = function Pthreads -> "pthreads" | Gprs _ -> "gprs" | Cpr _ -> "cpr"

let run_engine ~contexts ~seed ~budget p engine =
  let injector rate = Faults.Injector.config ~seed rate in
  match engine with
  | Pthreads -> pthreads ~contexts ~seed ~max_cycles:budget ~blocks:p.blocks p.program
  | Gprs rate ->
    Spans.timed "Gprs.Engine.run" (fun () ->
        Gprs.Engine.run ~lint:`Off ~blocks:p.blocks
          {
            Gprs.Engine.default_config with
            n_contexts = contexts;
            seed;
            injector = injector rate;
            max_cycles = Some budget;
          }
          p.program)
  | Cpr rate ->
    (* the drivers' default interval: 1/25 of the fault-free run *)
    Spans.timed "Cpr.run" (fun () ->
        Cpr.run ~blocks:p.blocks
          {
            Cpr.default_config with
            n_contexts = contexts;
            seed;
            checkpoint_interval = seconds_of (Stdlib.max 1 (p.ref_cycles / 25));
            injector = injector rate;
            max_cycles = Some budget;
          }
          p.program)

let counter_keys = function
  | Pthreads -> []
  | Gprs _ ->
    [
      "gprs.subthreads"; "gprs.tokens"; "gprs.sync_parks"; "gprs.retired";
      "gprs.squashed_subs"; "gprs.recoveries"; "gprs.restored_words";
      "gprs.wal_undone";
    ]
  | Cpr _ ->
    [ "cpr.checkpoints"; "cpr.snap_words_copied"; "cpr.rollbacks"; "cpr.restored_words" ]

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let ratio a b = if b > 0.0 then a /. b else 0.0

(* Engine counters as per-layer values: sums over the first pass. Every
   pass repeats the same runs, so they do not move with host speed. *)
let engine_layer counters =
  let keys = counter_keys (Gprs 0.0) @ counter_keys (Cpr 0.0) in
  List.map (fun k -> (k, get counters k)) keys
  @ [
      ("gprs.retired_frac", ratio (get counters "gprs.retired") (get counters "gprs.subthreads"));
      ( "gprs.us_per_subthread",
        1e6 *. ratio (get counters "gprs.host_s") (get counters "gprs.subthreads") );
      ("sim.cycles_total", get counters "sim.cycles_total");
      ("sim.dnc_runs", get counters "sim.dnc_runs");
    ]

let ms p xs = 1000.0 *. percentile p xs

(* ------------------------------------------------------------------ *)
(* sim-steady and sim-faulty                                           *)
(* ------------------------------------------------------------------ *)

type scenario = { prog : prog; engine : engine; tag : string; seed : int }

(* Expected exceptions per Pthreads-length run, (low, high). A copy of
   [fig10_exceptions] in lib/analysis/experiments.ml (line 261), which
   experiments.mli does not export; keep the two in step. *)
let fig10_exceptions = function
  | "barnes-hut" | "blackscholes" -> (6.0, 30.0)
  | "canneal" | "histogram" | "dedup" | "reverse-index" -> (8.0, 16.0)
  | "swaptions" -> (2.0, 3.3)
  | "pbzip2" | "re" -> (8.0, 16.0)
  | "wordcount" -> (6.0, 18.0)
  | _ -> (6.0, 12.0)

let known sc =
  known_defect ~workload:sc.prog.spec.W.name
    ~gprs_faulty:(match sc.engine with Gprs rate -> rate > 0.0 | Pthreads | Cpr _ -> false)

(* One fault schedule per scenario: a pass of 40 runs takes 2-3 s, so a
   run holds 7-10 passes. With two schedules (80 runs, 3-6 passes) an
   operation's best time too often came from no fast stretch of a run
   whose host was slow for most of it. *)
let faulty_grid ~seed progs =
  List.concat_map
    (fun p ->
      let base_s = seconds_of p.ref_cycles in
      let lo, hi = fig10_exceptions p.spec.W.name in
      [
        { prog = p; engine = Gprs (lo /. base_s); tag = "gprs@L"; seed };
        { prog = p; engine = Gprs (hi /. base_s); tag = "gprs@H"; seed };
        { prog = p; engine = Cpr (lo /. base_s); tag = "cpr@L"; seed };
        { prog = p; engine = Cpr (hi /. base_s); tag = "cpr@H"; seed };
      ])
    progs

let steady_grid ~seed progs =
  List.concat_map
    (fun p ->
      List.map
        (fun e -> { prog = p; engine = e; tag = engine_name e; seed })
        [ Pthreads; Gprs 0.0; Cpr 0.0 ])
    progs

let scenario_key sc = Printf.sprintf "%s %s seed %d" sc.prog.label sc.tag sc.seed

(* Completed runs must reproduce the Pthreads digest; DNC runs are an
   outcome of the fault load, not a failure. *)
let check_digest sc (r : Exec.State.run_result) =
  let d = sc.prog.spec.W.digest r in
  let failure =
    if r.Exec.State.dnc || String.equal d sc.prog.ref_digest then None
    else
      Some (Printf.sprintf "%s: digest %s, want %s" (scenario_key sc) d sc.prog.ref_digest)
  in
  (d, failure)

let sim ~faulty ~smoke ~seed ~seconds ~trace =
  (* Smoke size shrinks sim-faulty's fault schedules, not its inputs: on
     smaller inputs more programs hit GPRS's wrong-answer defect. *)
  let contexts = 8 and scale = if smoke && not faulty then 0.1 else 1.0 in
  let grains = if faulty then [ W.Default ] else [ W.Default; W.Fine ] in
  let reps = if smoke then 1 else setup_reps in
  let budget_factor = 20 in
  let progs, again, finish_setup =
    spread_setup ~reps ~trace (fun () ->
        List.concat_map
          (fun spec ->
            List.map
              (fun g ->
                with_reference ~contexts ~seed spec g (prepare ~contexts ~scale spec g))
              grains)
          Workloads.Suite.all)
  in
  let grid = if faulty then faulty_grid ~seed progs else steady_grid ~seed progs in
  let run sc =
    run_engine ~contexts ~seed:sc.seed ~budget:(budget_factor * sc.prog.ref_cycles) sc.prog
      sc.engine
  in
  let t = tally () and b = best () in
  let counters = Hashtbl.create 32 in
  let fp = ref fnv_init in
  let n =
    passes ~trace ~seconds ~between:again (fun p ->
        List.iter
          (fun sc ->
            let r, dt = run sc in
            let digest, failure = check_digest sc r in
            record ~known:(known sc) t failure;
            observe b (scenario_key sc) ~latency:dt ~total:dt;
            if p = 0 then begin
              fp :=
                fnv !fp
                  (Printf.sprintf "%s|%s|%d|%b\n" (scenario_key sc) digest
                     r.Exec.State.sim_cycles r.Exec.State.dnc);
              bump counters "sim.cycles_total" (float_of_int r.Exec.State.sim_cycles);
              if r.Exec.State.dnc then bump counters "sim.dnc_runs" 1.0;
              List.iter
                (fun k ->
                  bump counters k (float_of_int (Sim.Stats.get r.Exec.State.run_stats k)))
                (counter_keys sc.engine);
              match sc.engine with Gprs _ -> bump counters "gprs.host_s" dt | _ -> ()
            end)
          grid)
  in
  let setup_s = finish_setup () in
  let lat = values b.latency in
  {
    setup_s;
    tally = t;
    ops_per_s = best_rate b;
    latency_s = lat;
    peak_rss_mb = peak_rss_mb "self";
    named =
      [
        ("runs_per_s", "1/s", best_rate b);
        ("run_ms_p50", "ms", ms 50.0 lat);
        ("run_ms_p95", "ms", ms 95.0 lat);
        ("dnc_runs_per_pass", "count", get counters "sim.dnc_runs");
      ];
    layer = ("trace.overhead_frac", trace_overhead b) :: engine_layer counters;
    fingerprint = hex !fp;
    op_best_ms = best_ms b;
    sizes =
      [
        ("programs", string_of_int (List.length progs));
        ("runs_per_pass", string_of_int (List.length grid));
        ("contexts", string_of_int contexts);
        ("scale", Printf.sprintf "%g" scale);
        ("dnc_budget", Printf.sprintf "%dx pthreads cycles" budget_factor);
        ("setup_reps", string_of_int reps);
        ("passes", string_of_int n);
      ];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* crash-recovery                                                      *)
(* ------------------------------------------------------------------ *)

(* [k] of [xs]: the middle element of each of [k] equal strata, so a
   run covers the whole log evenly. *)
let strata_middles k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if k >= n then xs else List.init k (fun i -> a.(((2 * i) + 1) * n / (2 * k)))

type leg = {
  lp : prog;
  points : int list;  (* the crash points this run replays every pass *)
  n_points : int;  (* every op-record boundary of the pilot's WAL *)
  want : string;  (* the pilot's digest *)
}

let crash_recovery ~smoke ~seconds ~trace =
  let contexts = 8 in
  let legs =
    if smoke then [ ("pbzip2", 0.05, Some 8); ("re", 0.05, Some 4); ("histogram", 0.2, Some 8) ]
    else [ ("pbzip2", 0.25, Some 60); ("re", 0.25, Some 25); ("histogram", 1.0, None) ]
  in
  let reps = if smoke then 1 else setup_reps in
  (* The inputs do not depend on the seed: one engine schedule (so one
     WAL) and the middle crash point of each of 60 (pbzip2) or 25 (re)
     equal strata of the log. The recovery times of these points span
     two orders of magnitude and the median falls where histogram's
     short recoveries meet the longer ones, so a seed-drawn sample moved
     the median by a third between seeds. *)
  let cfg =
    {
      Gprs.Engine.default_config with
      n_contexts = contexts;
      seed = 1;
      ordering = Gprs.Order.Balance_aware;
    }
  in
  let t = tally () in
  let legs, again, finish_setup =
    spread_setup ~reps ~trace (fun () ->
        List.map
          (fun (name, scale, sample) ->
            let spec = Workloads.Suite.find name in
            let lp =
              with_reference ~contexts ~seed:cfg.Gprs.Engine.seed spec W.Default
                (prepare ~contexts ~scale spec W.Default)
            in
            let image = ref "" in
            let pilot =
              Spans.call "Gprs.Engine.run" (fun () ->
                  Gprs.Engine.run ~lint:`Off ~blocks:lp.blocks ~wal_out:image
                    { cfg with Gprs.Engine.wal_stable = true }
                    lp.program)
            in
            let a = Spans.call "Recovery.analyze" (fun () -> Recovery.analyze !image) in
            let lsns = List.map fst a.Recovery.points in
            {
              lp;
              points =
                (match sample with Some k -> strata_middles k lsns | None -> lsns);
              n_points = List.length lsns;
              want = spec.W.digest pilot;
            })
          legs)
  in
  List.iter
    (fun l ->
      if not (String.equal l.want l.lp.ref_digest) then
        fail t
          (Printf.sprintf "%s pilot digest %s, Pthreads %s" l.lp.label l.want l.lp.ref_digest))
    legs;
  let b = best () in
  let crash_ms = ref [] and parse_ms = ref [] and analyze_ms = ref [] in
  let restart_ms = ref [] and resume_ms = ref [] and image_kb = ref [] in
  let counters = Hashtbl.create 8 in
  let fp = ref fnv_init in
  let crash_point p l lsn =
    let key = Printf.sprintf "%s@%d" l.lp.label lsn in
    let t0 = Spans.now () in
    match
      Spans.call "Gprs.Engine.run" (fun () ->
          Gprs.Engine.run ~lint:`Off ~blocks:l.lp.blocks
            { cfg with Gprs.Engine.crash_lsn = Some lsn }
            l.lp.program)
    with
    | _ -> record t (Some (key ^ ": crash point never fired"))
    | exception Gprs.Engine.Crashed dump -> (
      let crash_s = Spans.secs t0 (Spans.now ()) in
      let image = Gprs.Engine.dump_wal_image dump in
      match
        let recs, ps = Spans.timed "Wal.parse_image" (fun () -> Wal.parse_image image) in
        let _, az = Spans.timed "Recovery.analyze" (fun () -> Recovery.analyze image) in
        let (a, _, resume), rs =
          Spans.timed "Recovery.recover" (fun () -> Recovery.recover dump)
        in
        (recs, ps, az, a, resume, rs)
      with
      | exception Wal.Corrupt msg -> record t (Some (key ^ ": corrupt image: " ^ msg))
      | recs, ps, az, a, resume, rs ->
        crash_ms := (1000.0 *. crash_s) :: !crash_ms;
        parse_ms := (1000.0 *. ps) :: !parse_ms;
        analyze_ms := (1000.0 *. az) :: !analyze_ms;
        restart_ms := (1000.0 *. (rs -. az)) :: !restart_ms;
        image_kb := (float_of_int (String.length image) /. 1024.0) :: !image_kb;
        if a.Recovery.losers <> Gprs.Engine.dump_active_ids dump then
          record t (Some (key ^ ": WAL analysis losers <> live ROL at crash"))
        else begin
          let r, us = Spans.timed "Gprs.Engine.resume" resume in
          resume_ms := (1000.0 *. us) :: !resume_ms;
          let d = l.lp.spec.W.digest r in
          record t
            (if r.Exec.State.dnc then Some (key ^ ": recovered run did not complete")
             else if not (String.equal d l.want) then
               Some (Printf.sprintf "%s: digest %s, want %s" key d l.want)
             else None);
          observe b key ~latency:rs ~total:(crash_s +. ps +. az +. rs +. us);
          if p = 0 then begin
            fp := fnv !fp (Printf.sprintf "%s|%s|%d\n" key d r.Exec.State.sim_cycles);
            bump counters "wal.records" (float_of_int (List.length recs));
            bump counters "recovery.replayed_lsns" (float_of_int a.Recovery.replayed);
            bump counters "recovery.losers" (float_of_int (List.length a.Recovery.losers));
            bump counters "sim.cycles_total" (float_of_int r.Exec.State.sim_cycles)
          end
        end)
  in
  let n =
    passes ~trace ~seconds ~between:again (fun p ->
        List.iter (fun l -> List.iter (crash_point p l) l.points) legs)
  in
  let setup_s = finish_setup () in
  let lat = values b.latency in
  let p50 r = median !r in
  {
    setup_s;
    tally = t;
    ops_per_s = best_rate b;
    latency_s = lat;
    peak_rss_mb = peak_rss_mb "self";
    named =
      [
        ("crash_points_per_s", "1/s", best_rate b);
        ("recovery_ms_p50", "ms", ms 50.0 lat);
        ("recovery_ms_p90", "ms", ms 90.0 lat);
      ];
    layer =
      [
        ("trace.overhead_frac", trace_overhead b);
        ("recovery.crash_run_ms_p50", p50 crash_ms);
        ("recovery.analyze_ms_p50", p50 analyze_ms);
        ("recovery.restart_ms_p50", p50 restart_ms);
        ("recovery.resume_ms_p50", p50 resume_ms);
        ("recovery.replayed_lsns", get counters "recovery.replayed_lsns");
        ("recovery.losers", get counters "recovery.losers");
        ("wal.records", get counters "wal.records");
        ("wal.image_kb", p50 image_kb);
        ("wal.parse_ms", p50 parse_ms);
        ("sim.cycles_total", get counters "sim.cycles_total");
      ];
    fingerprint = hex !fp;
    op_best_ms = best_ms b;
    sizes =
      ("contexts", string_of_int contexts)
      :: ("setup_reps", string_of_int reps)
      :: ("passes", string_of_int n)
      :: List.map
           (fun l ->
             ( l.lp.label,
               Printf.sprintf "%d of %d crash points" (List.length l.points) l.n_points ))
           legs;
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* paper-eval                                                          *)
(* ------------------------------------------------------------------ *)

let finite_positive v = Float.is_finite v && v > 0.0

(* Shape of a figure; every completed bar has a positive relative time,
   and in the fault-free figures every GPRS bar ("G-...") completes.
   Pthreads and P-CPR may DNC there: fine-grained Blackscholes does, as
   in the paper. *)
let check_figure ~rows ~bars ~fault_free (f : Analysis.Report.figure) =
  let shape_ok =
    List.length f.Analysis.Report.rows = rows
    && List.for_all
         (fun (r : Analysis.Report.row) -> List.length r.Analysis.Report.bars = bars)
         f.Analysis.Report.rows
  in
  let bars_ok =
    List.for_all
      (fun (r : Analysis.Report.row) ->
        List.for_all
          (fun (b : Analysis.Report.bar) ->
            if b.Analysis.Report.dnc then
              not (fault_free && String.starts_with ~prefix:"G-" b.Analysis.Report.label)
            else finite_positive b.Analysis.Report.value)
          r.Analysis.Report.bars)
      f.Analysis.Report.rows
  in
  if shape_ok && bars_ok then None
  else Some (f.Analysis.Report.id ^ ": wrong shape or a bad bar")

let paper_eval ~smoke ~seed ~seconds ~trace =
  let contexts = if smoke then 4 else 24 and scale = if smoke then 0.05 else 0.1 in
  let fig11_contexts = if smoke then [ 1; 4 ] else [ 1; 2; 4; 8; 16; 24 ] in
  let reps = if smoke then 1 else setup_reps in
  let (), again, finish_setup =
    spread_setup ~reps ~trace (fun () ->
        List.iter
          (fun spec ->
            List.iter (fun g -> ignore (prepare ~contexts ~scale spec g)) [ W.Default; W.Fine ])
          Workloads.Suite.all)
  in
  let cfg =
    {
      Analysis.Experiments.default_cfg with
      Analysis.Experiments.n_contexts = contexts;
      scale;
      seed;
      jobs = 1;
    }
  in
  (* Table 2's Exec(s) column is checked against independent Pthreads runs. *)
  let refs =
    List.map
      (fun (spec : W.spec) ->
        let program = spec.W.build ~n_contexts:contexts ~grain:W.Default ~scale in
        let r, _ = pthreads ~contexts ~seed program in
        (spec.W.name, Printf.sprintf "%.3f" r.Exec.State.sim_seconds))
      Workloads.Suite.all
  in
  let t = tally () and b = best () in
  let n = List.length Workloads.Suite.all in
  let fp = ref fnv_init in
  let passes_run =
    passes ~trace ~seconds ~between:again (fun p ->
        let driver name f check =
          let v, dt = Spans.timed ("Analysis.Experiments." ^ name) (fun () -> f cfg) in
          observe b name ~latency:dt ~total:dt;
          record t (Option.map (fun m -> name ^ ": " ^ m) (check v))
        in
        driver "table2" Analysis.Experiments.table2 (fun rows ->
            if p = 0 then List.iter (fun row -> fp := fnv !fp (String.concat "|" row ^ "\n")) rows;
            let agree = function
              | name :: _ :: _ :: _ :: exec :: _ -> List.assoc_opt name refs = Some exec
              | _ -> false
            in
            let bad = List.filter (fun row -> not (agree row)) rows in
            if List.length rows = n && bad = [] then None
            else Some (Printf.sprintf "%d of %d rows disagree with Pthreads" (List.length bad) n));
        let fig name f ~rows ~bars ~fault_free =
          driver name f (check_figure ~rows ~bars ~fault_free)
        in
        fig "fig8a" Analysis.Experiments.fig8a ~rows:n ~bars:5 ~fault_free:true;
        fig "fig8b" Analysis.Experiments.fig8b ~rows:n ~bars:5 ~fault_free:true;
        fig "fig9" Analysis.Experiments.fig9 ~rows:4 ~bars:2 ~fault_free:true;
        fig "fig10" Analysis.Experiments.fig10 ~rows:n ~bars:4 ~fault_free:false;
        driver "fig11"
          (Analysis.Experiments.fig11 ~contexts:fig11_contexts)
          (fun (r : Analysis.Experiments.fig11_result) ->
            let complete series =
              List.length series = List.length fig11_contexts
              && List.for_all
                   (fun (_, pts) ->
                     List.length pts = List.length r.Analysis.Experiments.rates
                     && List.for_all
                          (fun (_, v) -> Option.fold ~none:true ~some:finite_positive v)
                          pts)
                   series
            in
            if
              complete r.Analysis.Experiments.cpr_times
              && complete r.Analysis.Experiments.gprs_times
            then None
            else Some "incomplete series"))
  in
  let setup_s = finish_setup () in
  let lat = values b.latency in
  {
    setup_s;
    tally = t;
    ops_per_s = best_rate b;
    latency_s = lat;
    peak_rss_mb = peak_rss_mb "self";
    named = [ ("wall_s", "s", sum (values b.total)) ];
    layer = [ ("trace.overhead_frac", trace_overhead b) ];
    fingerprint = hex !fp;
    op_best_ms = best_ms b;
    sizes =
      [
        ("contexts", string_of_int contexts);
        ("scale", Printf.sprintf "%g" scale);
        ("drivers", "table2 fig8a fig8b fig9 fig10 fig11");
        ("fig11_contexts", String.concat " " (List.map string_of_int fig11_contexts));
        ("setup_reps", string_of_int reps);
        ("passes", string_of_int passes_run);
      ];
    notes = [];
  }
