(* Regenerate the paper's tables and figures.

   Usage: paper [table1|table2|fig8a|fig8b|fig9|fig10|fig11|all]
                [--contexts N] [--scale S] [--seed K] [-j JOBS]

   Each driver runs the simulator; see EXPERIMENTS.md for the recorded
   paper-vs-measured comparison. *)

open Cmdliner

let ppf = Format.std_formatter

let render_fig charts fig =
  Analysis.Report.render_figure ppf fig;
  if charts then Analysis.Report.render_bar_chart ppf fig

let run_one cfg charts = function
  | "table1" ->
    Analysis.Report.render_table ppf ~title:"Table 1 — Related work (qualitative)"
      ~header:
        [ "Proposal"; "Recovery"; "Design"; "Chkpt."; "Rec."; "Scalable"; "Det."; "Det. cost" ]
      (Analysis.Experiments.table1 ())
  | "table2" ->
    Analysis.Report.render_table ppf
      ~title:"Table 2 — Programs and their relative characteristics"
      ~header:
        [ "Program"; "Comp."; "Sync."; "Crit."; "Exec(s)"; "Sub-size"; "#Subs" ]
      (Analysis.Experiments.table2 cfg)
  | "fig8a" -> render_fig charts (Analysis.Experiments.fig8a cfg)
  | "fig8b" -> render_fig charts (Analysis.Experiments.fig8b cfg)
  | "fig9" -> render_fig charts (Analysis.Experiments.fig9 cfg)
  | "fig10" -> render_fig charts (Analysis.Experiments.fig10 cfg)
  | "fig11" ->
    Analysis.Experiments.render_fig11 ppf (Analysis.Experiments.fig11 cfg)
  | "ablate-order" -> render_fig charts (Analysis.Experiments.ablation_ordering cfg)
  | "ablate-latency" ->
    Analysis.Report.render_table ppf
      ~title:"Ablation C — detection-latency sweep (Pbzip2, ~6 exceptions/run)"
      ~header:[ "latency(cy)"; "rel.time"; "ROL max"; "WAL max"; "squashed" ]
      (Analysis.Experiments.ablation_latency cfg)
  | "ablate-recovery" -> render_fig charts (Analysis.Experiments.ablation_recovery cfg)
  | "ablate-interval" ->
    Analysis.Report.render_table ppf
      ~title:"Ablation D — CPR checkpoint-interval sweep (RE, ~6 exceptions/run)"
      ~header:[ "interval"; "clean"; "faulty"; "ckpts"; "rollbacks" ]
      (Analysis.Experiments.ablation_interval cfg)
  | "tune-weights" ->
    let spec = Workloads.Suite.find "pbzip2" in
    Analysis.Experiments.render_weights ppf spec
      (Analysis.Experiments.tune_weights cfg spec)
  | other -> invalid_arg other (* [which] admits only the names above *)

let experiments =
  [ "table1"; "table2"; "fig8a"; "fig8b"; "fig9"; "fig10"; "fig11" ]

let ablations =
  [ "ablate-order"; "ablate-latency"; "ablate-recovery"; "ablate-interval"; "tune-weights" ]

let main targets contexts scale seed charts jobs =
  let jobs =
    if jobs = 0 then Analysis.Pool.available_jobs () else Stdlib.max 1 jobs
  in
  let cfg =
    {
      Analysis.Experiments.default_cfg with
      Analysis.Experiments.n_contexts = contexts;
      scale;
      seed;
      jobs;
    }
  in
  List.iter
    (fun t ->
      run_one cfg charts t;
      Format.fprintf ppf "@.")
    targets

let which =
  let doc =
    "Experiment to regenerate: table1, table2, fig8a, fig8b, fig9, fig10, \
     fig11, all; or ablate-order, ablate-latency, ablate-recovery, \
     ablate-interval, tune-weights, ablations."
  in
  let targets =
    ("all", experiments) :: ("ablations", ablations)
    :: List.map (fun n -> (n, [ n ])) (experiments @ ablations)
  in
  Arg.(value & pos 0 (enum targets) experiments & info [] ~docv:"EXPERIMENT" ~doc)

let contexts =
  let doc = "Number of simulated hardware contexts." in
  Arg.(value & opt Cli.positive_int 24 & info [ "contexts"; "n" ] ~doc)

let scale =
  let doc = "Input-size scale (1.0 = the paper-style large inputs)." in
  Arg.(value & opt Cli.scale 1.0 & info [ "scale" ] ~doc)

let seed =
  let doc = "Simulation seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let charts =
  let doc = "Also render figures as ASCII bar charts." in
  Arg.(value & flag & info [ "charts" ] ~doc)

let jobs =
  let doc =
    "Worker domains for running independent simulations in parallel; 0 \
     means one per recommended core. Output is bit-identical for any \
     value."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc)

let cmd =
  let doc = "regenerate the GPRS paper's tables and figures" in
  Cmd.v
    (Cmd.info "paper" ~doc)
    Term.(const main $ which $ contexts $ scale $ seed $ charts $ jobs)

let () = Stdlib.exit (Cmd.eval cmd)
