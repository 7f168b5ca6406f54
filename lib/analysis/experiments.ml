type cfg = {
  n_contexts : int;
  scale : float;
  seed : int;
  dnc_factor : int;
  jobs : int;  (** worker domains for fanning out independent runs *)
}

let default_cfg =
  { n_contexts = 24; scale = 1.0; seed = 1; dnc_factor = 30; jobs = 1 }

(* ------------------------------------------------------------------ *)
(* Prepared programs and engine runners                                *)
(* ------------------------------------------------------------------ *)

(* One workload x grain x context count: the row's scenario and its
   program, built and analyzed once. Lint admission runs at most once,
   before the first GPRS run, and raises [Failure] on error-severity
   findings: the drivers hold a prepared value for one row, inside one
   [Pool.map] task, so the lazy is never forced from two domains. *)
type prepared = {
  cfg : cfg;
  scn : Run.t;
  run : Run.prepared;
  linted : unit Lazy.t;
}

let prepare cfg (spec : Workloads.Workload.spec) ~grain =
  let scn =
    {
      Run.id = "";
      workload = spec.Workloads.Workload.name;
      engine = "gprs";
      ordering = "balance-aware";
      contexts = cfg.n_contexts;
      scale = cfg.scale;
      grain = fst (List.find (fun (_, g) -> g = grain) Run.grains);
      seed = cfg.seed;
      rate = 0.0;
      interval = 0.0;
      want_stats = false;
    }
  in
  let run = Run.prepare scn in
  {
    cfg;
    scn;
    run;
    linted =
      lazy
        (if Lint.Check.admit ~title:"GPRS-lint (pre-execution)" run.Run.program
            <> []
         then
           failwith
             (spec.Workloads.Workload.name
            ^ ": lint found error-severity issues"));
  }

let pthreads_on ?max_cycles p =
  Exec.Baseline.run ~blocks:p.run.Run.blocks
    { (Run.pthreads_config p.scn) with max_cycles }
    p.run.Run.program

let gprs_exec p config =
  Lazy.force p.linted;
  Gprs.Engine.run ~blocks:p.run.Run.blocks config p.run.Run.program

let gprs_on ?(ordering = "balance-aware") ?(costs = Vm.Costs.default)
    ?(rate = 0.0) ?(recovery = Gprs.Engine.Selective) ?max_cycles p =
  gprs_exec p
    {
      (Run.gprs_config { p.scn with ordering; rate }) with
      recovery;
      costs;
      max_cycles;
    }

let baseline_cache : (string, int) Hashtbl.t = Hashtbl.create 32
let baseline_cache_lock = Mutex.create ()

(* Fault-free default-grain Pthreads cycles of [p]'s workload at [p]'s
   context count, scale and seed; a miss runs on [p] itself when it is
   the default-grain program. *)
let baseline_cycles p =
  let cfg = p.cfg in
  let key =
    Printf.sprintf "%s/%d/%f/%d" p.scn.Run.workload cfg.n_contexts cfg.scale
      cfg.seed
  in
  let cached =
    Mutex.protect baseline_cache_lock (fun () ->
        Hashtbl.find_opt baseline_cache key)
  in
  match cached with
  | Some c -> c
  | None ->
    let d =
      match Run.grain p.scn with
      | Workloads.Workload.Default -> p
      | Workloads.Workload.Fine ->
        prepare cfg p.run.Run.spec ~grain:Workloads.Workload.Default
    in
    let c = (pthreads_on d).Exec.State.sim_cycles in
    Mutex.protect baseline_cache_lock (fun () ->
        Hashtbl.replace baseline_cache key c);
    c

let cpr_on ?interval ?(rate = 0.0) ?max_cycles p =
  let interval =
    match interval with
    | Some i -> i
    | None ->
      Sim.Time.to_seconds
        ~cycles_per_second:Vm.Costs.default.Vm.Costs.cycles_per_second
        (Stdlib.max 1 (baseline_cycles p / 25))
  in
  Cpr.run ~blocks:p.run.Run.blocks
    { (Run.cpr_config { p.scn with interval; rate }) with max_cycles }
    p.run.Run.program

(* One driver row: the prepared program, its fault-free default-grain
   Pthreads cycles, the DNC budget and the same baseline in simulated
   seconds. The row's runs carry its budget ({!gprs}, {!cpr}) and are
   reported relative to [base] ({!bar}). *)
type row = { p : prepared; base : int; budget : int; base_s : float }

let row cfg spec ~grain =
  let p = prepare cfg spec ~grain in
  let base = baseline_cycles p in
  let cycles_per_second = Vm.Costs.default.Vm.Costs.cycles_per_second in
  let base_s = Sim.Time.to_seconds ~cycles_per_second base in
  { p; base; budget = cfg.dnc_factor * base; base_s }

(* The exception rate that injects [k] exceptions per fault-free run. *)
let per_run r k = k /. r.base_s

let gprs ?ordering ?costs ?rate ?recovery r =
  gprs_on ?ordering ?costs ?rate ?recovery ~max_cycles:r.budget r.p

let cpr ?interval ?rate r = cpr_on ?interval ?rate ~max_cycles:r.budget r.p

(* A run's time relative to the row's baseline, or DNC. *)
let bar r label (res : Exec.State.run_result) =
  {
    Report.label;
    value = float_of_int res.Exec.State.sim_cycles /. float_of_int r.base;
    dnc = res.Exec.State.dnc;
  }

let cell r res = Report.fmt_bar (bar r "" res)

let costs_order_only =
  {
    Vm.Costs.default with
    Vm.Costs.reg_checkpoint = 0;
    cow_first_write = 0;
    rol_insert = 0;
    rol_retire = 0;
    wal_append = 0;
    wal_undo = 0;
    record_per_word = 0;
    restore_per_word = 0;
  }

let costs_order_rol =
  {
    Vm.Costs.default with
    Vm.Costs.reg_checkpoint = 0;
    cow_first_write = 0;
    record_per_word = 0;
    restore_per_word = 0;
  }

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  List.map
    (fun (r : Model.related_work_row) ->
      [
        r.Model.proposal;
        r.Model.recovery;
        r.Model.design;
        r.Model.chkpt_cost;
        r.Model.rec_cost;
        r.Model.scalable;
        r.Model.deterministic;
        r.Model.det_cost;
      ])
    Model.table1

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let sub_size_class mean_cycles =
  if mean_cycles < 3_000.0 then "small"
  else if mean_cycles < 60_000.0 then "medium"
  else "large"

let table2 cfg =
  Pool.map ~jobs:cfg.jobs
    (fun (spec : Workloads.Workload.spec) ->
      let d = prepare cfg spec ~grain:Workloads.Workload.Default in
      let p = pthreads_on d in
      let g = gprs_on d in
      let subs = Sim.Stats.get g.Exec.State.run_stats "gprs.subthreads" in
      let mean = Sim.Stats.mean g.Exec.State.run_stats "gprs.sub_cycles" in
      [
        spec.Workloads.Workload.name;
        spec.Workloads.Workload.comp_size;
        spec.Workloads.Workload.sync_freq;
        spec.Workloads.Workload.crit_size;
        Printf.sprintf "%.3f" p.Exec.State.sim_seconds;
        sub_size_class mean;
        string_of_int subs;
      ])
    Workloads.Suite.all

(* ------------------------------------------------------------------ *)
(* Fig. 8: overhead decomposition                                      *)
(* ------------------------------------------------------------------ *)

let fig8 cfg ~grain ~id ~title =
  let rows =
    Pool.map ~jobs:cfg.jobs
      (fun (spec : Workloads.Workload.spec) ->
        let r = row cfg spec ~grain in
        {
          Report.row_name = spec.Workloads.Workload.name;
          bars =
            [
              bar r "G-R-OR" (gprs ~ordering:"round-robin" ~costs:costs_order_only r);
              bar r "G-B-OR" (gprs ~costs:costs_order_only r);
              bar r "G-B-ROL" (gprs ~costs:costs_order_rol r);
              bar r "P-/-CH" (cpr r);
              bar r "G-B-CH" (gprs r);
            ];
        })
      Workloads.Suite.all
  in
  {
    Report.id;
    title;
    rows;
    notes =
      [
        "times relative to the 24-context Pthreads baseline (1.00)";
        "OR = ordering; ROL = +reorder-list mgmt; CH = +checkpointing";
      ];
  }

let fig8a cfg =
  fig8 cfg ~grain:Workloads.Workload.Default ~id:"Fig. 8a"
    ~title:"GPRS overheads, default computation sizes"

let fig8b cfg =
  fig8 cfg ~grain:Workloads.Workload.Fine ~id:"Fig. 8b"
    ~title:"GPRS overheads, finer-grained computations"

(* ------------------------------------------------------------------ *)
(* Fig. 9: fine-grained Pthreads vs GPRS                               *)
(* ------------------------------------------------------------------ *)

let fig9_programs = [ "barnes-hut"; "blackscholes"; "swaptions"; "canneal" ]

let fig9 cfg =
  let rows =
    Pool.map ~jobs:cfg.jobs
      (fun name ->
        let r =
          row cfg (Workloads.Suite.find name) ~grain:Workloads.Workload.Fine
        in
        {
          Report.row_name = name;
          bars =
            [
              bar r "P-fine" (pthreads_on ~max_cycles:r.budget r.p);
              bar r "G-fine" (gprs r);
            ];
        })
      fig9_programs
  in
  {
    Report.id = "Fig. 9";
    title = "Pthreads and GPRS with finer-grained computations";
    rows;
    notes = [ "relative to default-grain Pthreads; DNC = did not complete" ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 10: recovery at low/high exception rates                       *)
(* ------------------------------------------------------------------ *)

(* Expected exceptions per run (low, high); ratios follow the paper's
   per-program rate pairs, absolute counts rescaled to our run lengths. *)
let fig10_exceptions = function
  | "barnes-hut" | "blackscholes" -> (6.0, 30.0)
  | "canneal" | "histogram" | "dedup" | "reverse-index" -> (8.0, 16.0)
  | "swaptions" -> (2.0, 3.3)
  | "pbzip2" -> (8.0, 16.0)
  | "re" -> (8.0, 16.0)
  | "wordcount" -> (6.0, 18.0)
  | _ -> (6.0, 12.0)

let fig10 cfg =
  let rows =
    Pool.map ~jobs:cfg.jobs
      (fun (spec : Workloads.Workload.spec) ->
        let r = row cfg spec ~grain:Workloads.Workload.Default in
        let k_low, k_high = fig10_exceptions spec.Workloads.Workload.name in
        let rate_low = per_run r k_low and rate_high = per_run r k_high in
        {
          Report.row_name =
            Printf.sprintf "%s (%.1f/s, %.1f/s)" spec.Workloads.Workload.name rate_low
              rate_high;
          bars =
            [
              bar r "P-CPR-L" (cpr ~rate:rate_low r);
              bar r "GPRS-L" (gprs ~rate:rate_low r);
              bar r "P-CPR-H" (cpr ~rate:rate_high r);
              bar r "GPRS-H" (gprs ~rate:rate_high r);
            ];
        })
      Workloads.Suite.all
  in
  {
    Report.id = "Fig. 10";
    title = "Recovery at low/high exception rates";
    rows;
    notes = [ "row label lists the injected low/high rates (exceptions/sec)" ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 11: Pbzip2 exception-tolerance sweep                           *)
(* ------------------------------------------------------------------ *)

type fig11_result = {
  contexts : int list;
  rates : float list;
  cpr_times : (int * (float * float option) list) list;
  gprs_times : (int * (float * float option) list) list;
  tipping : (int * float option * float option) list;
}

let fig11 ?rates ?(contexts = [ 1; 2; 4; 8; 16; 24 ]) cfg =
  let spec = Workloads.Suite.find "pbzip2" in
  (* Both series of one context count share one prepared program, so a
     task is one row: (n, cpr points, gprs points). *)
  let rows =
    Pool.map ~jobs:cfg.jobs
      (fun n ->
        let r =
          row { cfg with n_contexts = n } spec ~grain:Workloads.Workload.Default
        in
        let rates =
          match rates with
          | Some rates -> rates
          | None ->
            (* geometric ladder, in units of exceptions per baseline run *)
            List.map (per_run r) [ 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 ]
        in
        let points engine_run =
          List.map
            (fun rate ->
              let b = bar r "" (engine_run rate) in
              (rate, if b.Report.dnc then None else Some b.Report.value))
            rates
        in
        let cpr_pts = points (fun rate -> cpr ~rate r) in
        let gprs_pts = points (fun rate -> gprs ~rate r) in
        (n, cpr_pts, gprs_pts))
      contexts
  in
  let cpr_times = List.map (fun (n, c, _) -> (n, c)) rows in
  let gprs_times = List.map (fun (n, _, g) -> (n, g)) rows in
  let tip points =
    List.fold_left
      (fun acc (rate, t) -> match t with Some _ -> Some rate | None -> acc)
      None points
  in
  let tipping = List.map (fun (n, c, g) -> (n, tip c, tip g)) rows in
  let rates_used =
    match cpr_times with (_, pts) :: _ -> List.map fst pts | [] -> []
  in
  { contexts; rates = rates_used; cpr_times; gprs_times; tipping }

let render_series ppf ~name series =
  List.iter
    (fun (n, points) ->
      Format.fprintf ppf "%s n=%-2d :" name n;
      List.iter
        (fun (rate, t) ->
          match t with
          | Some v -> Format.fprintf ppf "  %.2f/s=%.2f" rate v
          | None -> Format.fprintf ppf "  %.2f/s=DNC" rate)
        points;
      Format.fprintf ppf "@.")
    series

let render_fig11 ppf r =
  Format.fprintf ppf "Fig. 11 — Pbzip2 exception tolerance, 1..24 contexts@.";
  Format.fprintf ppf "(entries: exception rate = relative execution time)@.";
  render_series ppf ~name:"P-CPR" r.cpr_times;
  render_series ppf ~name:"GPRS " r.gprs_times;
  Format.fprintf ppf "Tipping rates (highest completing rate, exceptions/sec):@.";
  (* A series that completes its row's top rung only bounds the tipping
     rate from below, so that rate prints as [>=]. *)
  let fmt_tip series n tip =
    let top =
      match List.rev (List.assoc n series) with
      | (rate, _) :: _ -> Some rate
      | [] -> None
    in
    match tip with
    | Some rate when Some rate = top -> Printf.sprintf ">=%.2f" rate
    | Some rate -> Printf.sprintf "=%.2f" rate
    | None -> "=<min"
  in
  List.iter
    (fun (n, c, g) ->
      Format.fprintf ppf "  contexts=%-2d  P-CPR%-9s GPRS%s@." n
        (fmt_tip r.cpr_times n c) (fmt_tip r.gprs_times n g))
    r.tipping

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_ordering cfg =
  let programs = [ "pbzip2"; "dedup"; "re" ] in
  let rows =
    List.concat
    @@ Pool.map ~jobs:cfg.jobs
      (fun name ->
        let r =
          row cfg (Workloads.Suite.find name) ~grain:Workloads.Workload.Default
        in
        let bars ?rate () =
          [
            bar r "RR" (gprs ~ordering:"round-robin" ?rate r);
            bar r "BA" (gprs ~ordering:"balance-aware" ?rate r);
            bar r "WT" (gprs ~ordering:"weighted" ?rate r);
            bar r "REC" (gprs ~ordering:"recorded" ?rate r);
          ]
        in
        [
          { Report.row_name = name ^ " (fault-free)"; bars = bars () };
          {
            Report.row_name = name ^ " (with exceptions)";
            bars = bars ~rate:(per_run r 6.0) ();
          };
        ])
      programs
  in
  {
    Report.id = "Ablation A";
    title = "Ordering schemes: round-robin / balance-aware / weighted / recorded";
    rows;
    notes =
      [
        "REC = nondeterministic recorded order (the paper's §2.4 alternative)";
        "exception rows inject ~6 exceptions per fault-free run length";
      ];
  }

let ablation_latency cfg =
  let r =
    row cfg (Workloads.Suite.find "pbzip2") ~grain:Workloads.Workload.Default
  in
  let c = Run.gprs_config { r.p.scn with rate = per_run r 6.0 } in
  List.map
    (fun latency ->
      let res =
        gprs_exec r.p
          {
            c with
            costs = { Vm.Costs.default with Vm.Costs.detection_latency = latency };
            max_cycles = Some r.budget;
          }
      in
      let stat k = string_of_int (Sim.Stats.get res.Exec.State.run_stats k) in
      [
        string_of_int latency;
        cell r res;
        stat "gprs.rol_depth";
        stat "wal.high_water";
        stat "gprs.squashed_subs";
      ])
    [ 1_000; 10_000; 40_000; 100_000; 400_000 ]

let ablation_recovery cfg =
  let rows =
    Pool.map ~jobs:cfg.jobs
      (fun (spec : Workloads.Workload.spec) ->
        let r = row cfg spec ~grain:Workloads.Workload.Default in
        let rate = per_run r 6.0 in
        {
          Report.row_name = spec.Workloads.Workload.name;
          bars =
            [
              bar r "Selective" (gprs ~rate r);
              bar r "Basic" (gprs ~rate ~recovery:Gprs.Engine.Basic r);
            ];
        })
      Workloads.Suite.all
  in
  {
    Report.id = "Ablation B";
    title = "Selective restart vs basic recovery under exceptions";
    rows;
    notes = [ "~6 exceptions per fault-free run length" ];
  }

let tune_weights cfg (spec : Workloads.Workload.spec) =
  let r = row cfg spec ~grain:Workloads.Workload.Default in
  let p = r.p in
  let n_groups = p.run.Run.program.Vm.Isa.n_groups in
  let candidates =
    (* uniform plus front-loaded pipelines of varying steepness *)
    [ Array.make n_groups 1 ]
    @ List.filter_map
        (fun profile ->
          if List.length profile >= n_groups then
            Some (Array.of_list (List.filteri (fun i _ -> i < n_groups) profile))
          else None)
        [
          [ 2; 1; 1; 1; 1 ];
          [ 2; 2; 1; 1; 1 ];
          [ 4; 2; 1; 1; 1 ];
          [ 4; 4; 1; 1; 1 ];
          [ 8; 4; 2; 1; 1 ];
          [ 1; 2; 2; 2; 1 ];
          [ 2; 2; 2; 2; 1 ];
        ]
  in
  let timed =
    List.map
      (fun weights ->
        (* Weights change neither the code nor the lint verdict, so the
           variant reuses [p]'s decode and its one lint. *)
        let program = { p.run.Run.program with Vm.Isa.group_weights = weights } in
        let res =
          gprs_exec { p with run = { p.run with Run.program } }
            {
              (Run.gprs_config { p.scn with ordering = "weighted" }) with
              max_cycles = Some r.budget;
            }
        in
        (weights, (bar r "" res).Report.value))
      candidates
  in
  List.sort (fun (_, a) (_, b) -> compare a b) timed

let render_weights ppf (spec : Workloads.Workload.spec) results =
  Format.fprintf ppf "Weighted-schedule search for %s (relative time, best first):@."
    spec.Workloads.Workload.name;
  List.iter
    (fun (weights, t) ->
      Format.fprintf ppf "  %-16s %.3f@."
        (String.concat ":" (Array.to_list (Array.map string_of_int weights)))
        t)
    results

(* The §2.3 trade-off: shrinking the checkpoint interval cuts the restart
   penalty but inflates the checkpoint penalty. Swept on one workload
   under a fixed exception rate. *)
let ablation_interval cfg =
  let r = row cfg (Workloads.Suite.find "re") ~grain:Workloads.Workload.Default in
  let rate = per_run r 6.0 in
  List.map
    (fun divisor ->
      let interval = r.base_s /. float_of_int divisor in
      let faulty = cpr ~interval ~rate r in
      let clean = cpr ~interval r in
      let stat k = string_of_int (Sim.Stats.get faulty.Exec.State.run_stats k) in
      [
        Printf.sprintf "1/%d run" divisor;
        cell r clean;
        cell r faulty;
        stat "cpr.checkpoints";
        stat "cpr.rollbacks";
      ])
    [ 2; 5; 10; 25; 50; 100 ]
