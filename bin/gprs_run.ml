(* Run one workload under one engine with optional exception injection,
   or statically lint a workload's sync structure without running it.

   Usage: gprs_run -w pbzip2 -e gprs --rate 4.0 --contexts 24
          gprs_run lint canneal
          gprs_run lint all --verbose *)

open Cmdliner

let scenario ?(rate = 0.0) ?(ordering = "balance-aware")
    ?(interval = Cpr.default_config.Cpr.checkpoint_interval) ~engine workload
    contexts scale seed grain =
  {
    Server.Scenario.id = "";
    workload;
    engine;
    ordering;
    contexts;
    scale;
    grain;
    seed;
    rate;
    interval;
    want_stats = false;
  }

let build_workload workload contexts scale grain =
  let spec = Workloads.Suite.find workload in
  ( spec,
    spec.Workloads.Workload.build ~n_contexts:contexts
      ~grain:(List.assoc grain Server.Scenario.grains) ~scale )

(* Lint at the CLI level (all engines, not just GPRS), then hand the
   program to the engine with its own hook off so findings print once. *)
let cli_lint ~strict_lint ~no_lint program =
  if no_lint then `Run
  else begin
    let diags = Lint.Check.program program in
    let visible =
      List.filter
        (fun d -> d.Lint.Diagnostic.severity <> Lint.Diagnostic.Info)
        diags
    in
    if visible <> [] then
      Format.eprintf "%a" (Lint.Render.pp ~title:"GPRS-lint") visible;
    if strict_lint && Lint.Check.has_errors diags then `Refuse else `Run
  end

(* Dispatch-mix report (--profile): per-instruction-kind dispatch counts
   and the fused-hop-length histogram. *)
let print_profile (r : Exec.State.run_result) =
  let prefixed ~prefix k =
    String.length k >= String.length prefix
    && String.sub k 0 (String.length prefix) = prefix
  in
  let assoc = Sim.Stats.to_assoc r.Exec.State.run_stats in
  let dispatch = List.filter (fun (k, _) -> prefixed ~prefix:"dispatch." k) assoc in
  let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 dispatch in
  let hops = try List.assoc "fuse.hops" assoc with Not_found -> 0.0 in
  let instrs = float_of_int (Sim.Stats.get r.Exec.State.run_stats "instrs") in
  Format.printf "dispatch mix (%.0f dispatches, %.0f event-queue hops, %.2f instrs/hop):@."
    total hops
    (if hops > 0.0 then instrs /. hops else 0.0);
  List.iter
    (fun (k, v) ->
      Format.printf "  %-24s %12.0f  %5.1f%%@." k v
        (if total > 0.0 then 100.0 *. v /. total else 0.0))
    (List.sort (fun (_, a) (_, b) -> compare b a) dispatch);
  List.iter
    (fun (k, v) ->
      if prefixed ~prefix:"fuse.len." k then
        Format.printf "  %-24s %12.0f@." k v)
    assoc;
  (* Trace-compiler effectiveness: superblocks built at load, closure
     entries, instructions committed per entry, and guard/horizon deopt
     counts. *)
  let compile = List.filter (fun (k, _) -> prefixed ~prefix:"compile." k) assoc in
  if compile <> [] then begin
    Format.printf "compile (superblock trace compiler):@.";
    List.iter (fun (k, v) -> Format.printf "  %-24s %12.1f@." k v) compile
  end;
  (* Pool effectiveness (gprs only): sub-thread record reuse and
     event-queue cell recycling, plus the live high-water mark. *)
  let pool = List.filter (fun (k, _) -> prefixed ~prefix:"pool." k) assoc in
  if pool <> [] then begin
    Format.printf "pool (sub-thread record and event-cell recycling):@.";
    List.iter (fun (k, v) -> Format.printf "  %-24s %12.0f@." k v) pool
  end

let run workload engine contexts scale seed rate grain ordering interval
    show_stats profile strict_lint no_lint =
  if profile then Vm.Block.set_profiling true;
  let scn =
    scenario ~rate ~ordering ~interval ~engine workload contexts scale seed grain
  in
  let spec, program = Server.Scenario.build_program scn in
  match cli_lint ~strict_lint ~no_lint program with
  | `Refuse ->
    Format.eprintf
      "gprs_run: refusing to run %s: lint found error-severity issues \
       (--strict-lint)@."
      workload;
    Stdlib.exit 2
  | `Run ->
    let result =
      try Server.Scenario.exec scn program with
      | Faults.Points.Fault_error msg ->
        Format.eprintf "gprs_run: injected fault surfaced: %s@." msg;
        Stdlib.exit 1
      | Gprs.Engine.Crashed _ ->
        Format.eprintf
          "gprs_run: runtime crashed at an armed fault point \
           (GPRS_FAULT_POINTS); use crashsweep/faultsweep to exercise \
           recovery@.";
        Stdlib.exit 1
    in
    Format.printf "workload   : %s (%s)@." workload spec.Workloads.Workload.pattern;
    Format.printf "engine     : %s, %d contexts, seed %d@." engine contexts seed;
    Format.printf "exceptions : %.2f/s@." rate;
    Format.printf "completed  : %b%s@."
      (not result.Exec.State.dnc)
      (if result.Exec.State.dnc then " (DNC)" else "");
    Format.printf "sim time   : %d cycles = %.4f s@." result.Exec.State.sim_cycles
      result.Exec.State.sim_seconds;
    Format.printf "digest     : %s@." (spec.Workloads.Workload.digest result);
    if show_stats then Format.printf "%a@." Sim.Stats.pp result.Exec.State.run_stats;
    if profile then print_profile result

(* --- lint subcommand -------------------------------------------------- *)

let lint_one ~verbose ~json workload contexts scale grain =
  let _, program = build_workload workload contexts scale grain in
  let diags = Lint.Race.program program in
  let shown =
    if verbose then diags
    else
      List.filter
        (fun d -> d.Lint.Diagnostic.severity <> Lint.Diagnostic.Info)
        diags
  in
  if json then
    Format.printf "{\"workload\":\"%s\",\"diagnostics\":%a}"
      (Lint.Render.json_escape workload)
      Lint.Render.pp_json shown
  else
    Format.printf "%a"
      (Lint.Render.pp ~title:(Printf.sprintf "gprs_run lint %s" workload))
      shown;
  Lint.Check.has_errors diags

let lint_cmd_run workload contexts scale grain verbose json =
  let targets =
    if workload = "all" then Workloads.Suite.names else [ workload ]
  in
  if json then Format.printf "[";
  let any_errors =
    List.fold_left
      (fun acc w ->
        if json && acc <> None then Format.printf ",@.";
        let e = lint_one ~verbose ~json w contexts scale grain in
        Some (Option.value acc ~default:false || e))
      None targets
    |> Option.value ~default:false
  in
  if json then Format.printf "]@.";
  if any_errors then Stdlib.exit 1

(* --- racecheck subcommand --------------------------------------------- *)

(* Cross-validated race detection: the static lockset pass over the
   program, then a dynamic run with the FastTrack sanitizer enabled.
   The paper's selective-restart guarantee (§3.3) assumes cross-thread
   dependences are mediated by tracked sync; either detector finding a
   race voids that assumption, so any report exits 1. *)
let report_json r =
  Printf.sprintf
    "{\"addr\":%d,\"kind\":\"%s\",\"tid1\":%d,\"pc1\":%d,\"tid2\":%d,\"pc2\":%d,\"proc2\":\"%s\"}"
    r.Exec.Tsan.addr
    (Exec.Tsan.kind_label r.Exec.Tsan.kind)
    r.Exec.Tsan.tid1 r.Exec.Tsan.pc1 r.Exec.Tsan.tid2 r.Exec.Tsan.pc2
    (Lint.Render.json_escape r.Exec.Tsan.proc2)

let racecheck_one ~json ~engine workload contexts scale grain seed =
  let scn = scenario ~engine workload contexts scale seed grain in
  let _, program = Server.Scenario.build_program scn in
  let static_races =
    List.filter
      (fun d -> d.Lint.Diagnostic.kind = Lint.Diagnostic.Race_unprotected)
      (Lint.Race.program program)
  in
  let was = Exec.Tsan.enabled () in
  Exec.Tsan.set_enabled true;
  let result =
    Fun.protect
      ~finally:(fun () -> Exec.Tsan.set_enabled was)
      (fun () -> Server.Scenario.exec scn program)
  in
  let dynamic = result.Exec.State.races in
  if json then
    Format.printf
      "{\"workload\":\"%s\",\"engine\":\"%s\",\"static\":%a,\"dynamic\":[%s]}"
      (Lint.Render.json_escape workload)
      engine Lint.Render.pp_json static_races
      (String.concat "," (List.map report_json dynamic))
  else begin
    Format.printf "racecheck %s (engine %s, %d contexts, seed %d, scale %g)@."
      workload engine contexts seed scale;
    (match static_races with
    | [] -> Format.printf "  static : clean@."
    | ds ->
      Format.printf "  static : %d unprotected-race finding(s)@."
        (List.length ds);
      Format.printf "%a" (Lint.Render.pp ~title:"static races") ds);
    match dynamic with
    | [] -> Format.printf "  dynamic: clean@."
    | rs ->
      Format.printf "  dynamic: %d race(s) observed@." (List.length rs);
      List.iter (fun r -> Format.printf "    %a@." Exec.Tsan.pp_report r) rs
  end;
  static_races <> [] || dynamic <> []

let racecheck_run workload engine contexts scale grain seed json =
  let targets =
    if workload = "all" then Workloads.Suite.names else [ workload ]
  in
  if json then Format.printf "[";
  let any =
    List.fold_left
      (fun acc w ->
        if json && acc <> None then Format.printf ",@.";
        let r = racecheck_one ~json ~engine w contexts scale grain seed in
        Some (Option.value acc ~default:false || r))
      None targets
    |> Option.value ~default:false
  in
  if json then Format.printf "]@.";
  if any then Stdlib.exit 1

(* --- crashsweep subcommand -------------------------------------------- *)

(* Crash-consistency sweep: crash the whole runtime at every WAL-record
   boundary (or a seeded sample), ARIES-cold-recover, resume, and demand
   the fault-free digest. A P-CPR leg replays the same crash schedule
   restarting from its last committed global checkpoint. *)
(* Machine-readable sweep report: the normalized per-point signatures
   (shared with faultsweep), no wall-clock fields, so the same sweep is
   byte-identical across hosts. *)
let leg_json (r : Recovery.leg_report) =
  let module J = Server.Json in
  J.Obj
    [
      ("leg", J.Str r.Recovery.leg);
      ("points_total", J.Int r.Recovery.points_total);
      ("points_run", J.Int r.Recovery.points_run);
      ("ok", J.Bool (Recovery.leg_ok r));
      ( "outcomes",
        J.List
          (List.map
             (fun (p, sg) ->
               J.Obj [ ("point", J.Int p); ("signature", J.Str sg) ])
             r.Recovery.outcomes) );
      ( "mismatches",
        J.List
          (List.map
             (fun (p, msg) ->
               J.Obj [ ("point", J.Int p); ("detail", J.Str msg) ])
             r.Recovery.mismatches) );
      ("replayed_lsns", J.Int r.Recovery.replayed_lsns);
      ("redone_ops", J.Int r.Recovery.redone_ops);
      ("squashed_subs", J.Int r.Recovery.squashed_subs);
    ]

let crashsweep_run workload contexts scale seed sample schemes no_pcpr json =
  let spec, program = build_workload workload contexts scale "default" in
  let digest = spec.Workloads.Workload.digest in
  let scheme_of = function
    | "rr" | "round-robin" -> Gprs.Order.Round_robin
    | "bal" | "balance-aware" -> Gprs.Order.Balance_aware
    | "wt" | "weighted" -> Gprs.Order.Weighted
    | other -> failwith (Printf.sprintf "unknown scheme %S" other)
  in
  let schemes = String.split_on_char ',' schemes in
  let sample = if sample <= 0 then None else Some sample in
  let reports =
    List.map
      (fun name ->
        let cfg =
          {
            Gprs.Engine.default_config with
            n_contexts = contexts;
            seed;
            ordering = scheme_of name;
          }
        in
        Recovery.sweep_gprs ?sample ~sample_seed:seed ~leg:("gprs/" ^ name)
          ~cfg ~digest program)
      schemes
  in
  let reports =
    if no_pcpr then reports
    else begin
      (* The comparison leg crashes P-CPR at the simulated cycles of the
         first GPRS leg's WAL records — the same crash schedule. *)
      let cfg =
        {
          Gprs.Engine.default_config with
          n_contexts = contexts;
          seed;
          ordering = scheme_of (List.hd schemes);
        }
      in
      let image, _ = Recovery.pilot ~cfg program in
      let a = Recovery.analyze image in
      let cycles = List.map snd a.Recovery.points |> List.sort_uniq compare in
      let cycles =
        match sample with
        | Some n when n < List.length cycles ->
          Recovery.sample_points (Sim.Prng.create seed) n
            (List.map (fun c -> (c, c)) cycles)
          |> List.map fst
        | Some _ | None -> cycles
      in
      let ccfg = { Cpr.default_config with Cpr.n_contexts = contexts; seed } in
      reports
      @ [ Recovery.sweep_pcpr ~leg:"pcpr" ~cfg:ccfg ~digest
            ~crash_cycles:cycles program ]
    end
  in
  let all_ok = List.for_all Recovery.leg_ok reports in
  if json then begin
    let module J = Server.Json in
    print_endline
      (J.to_string
         (J.Obj
            [
              ("workload", J.Str workload);
              ("contexts", J.Int contexts);
              ("scale", J.Float scale);
              ("seed", J.Int seed);
              ("legs", J.List (List.map leg_json reports));
              ("ok", J.Bool all_ok);
            ]))
  end
  else begin
    Format.printf "crashsweep %s (scale %g, %d contexts, seed %d)@." workload
      scale contexts seed;
    List.iter (fun r -> Format.printf "%a@." Recovery.pp_report r) reports
  end;
  if not all_ok then Stdlib.exit 1

(* --- serve subcommand ------------------------------------------------- *)

let serve_run port sock jobs depth cache_cap idle_ms () allow_fault =
  let addr =
    match sock with
    | Some path -> Server.Daemon.Unix_sock path
    | None -> Server.Daemon.Tcp port
  in
  let d =
    Server.Daemon.start
      {
        Server.Daemon.addr;
        jobs;
        depth;
        cache_capacity = cache_cap;
        idle_quiesce_ms = idle_ms;
        allow_fault;
      }
  in
  (match Server.Daemon.bound_addr d with
  | Server.Daemon.Tcp p ->
    Format.printf "gprs_run serve: listening on 127.0.0.1:%d (jobs %d, depth %d)@." p jobs depth
  | Server.Daemon.Unix_sock path ->
    Format.printf "gprs_run serve: listening on %s (jobs %d, depth %d)@." path jobs depth);
  Server.Daemon.wait d

(* --- client subcommand ------------------------------------------------- *)

(* Local one-shot ground truth for --verify: same scenario, fresh decode,
   no daemon. Digest, cycles and DNC must match bit for bit. *)
let verify_against_local scn reply =
  let spec, program = Server.Scenario.build_program scn in
  let local = Server.Scenario.run ~spec ~program scn in
  let got what = Result.value ~default:"?" what in
  match
    ( Server.Json.str "digest" reply,
      Server.Json.int "sim_cycles" reply,
      Server.Json.bool "dnc" reply )
  with
  | Ok d, Ok cyc, Ok dnc
    when d = local.Server.Scenario.digest
         && cyc = local.Server.Scenario.sim_cycles
         && dnc = local.Server.Scenario.dnc ->
    None
  | _ ->
    Some
      (Printf.sprintf
         "daemon digest=%s cycles=%s vs one-shot digest=%s cycles=%d"
         (got (Server.Json.str ~default:"?" "digest" reply))
         (got
            (Result.map string_of_int
               (Server.Json.int ~default:(-1) "sim_cycles" reply)))
         local.Server.Scenario.digest local.Server.Scenario.sim_cycles)

let client_run port sock retries workload engine contexts scale seed rate
    grain ordering interval count mix open_rps verify show_stats do_shutdown =
  let addr =
    match sock with
    | Some path -> Server.Daemon.Unix_sock path
    | None -> Server.Daemon.Tcp port
  in
  let c = Server.Client.connect ~retries addr in
  let failures = ref 0 in
  let base =
    scenario ~rate ~ordering ~interval ~engine workload contexts scale seed grain
  in
  (match open_rps with
  | Some rps ->
    (* open-loop load: fixed-rate arrivals, latency includes queueing *)
    let l = Server.Client.open_loop c ~base ~n:count ~rps in
    if l.Server.Client.failed > 0 then incr failures;
    Format.printf
      "open-loop : %d sent at %.1f req/s, %d ok, %d failed@." l.Server.Client.sent
      rps l.Server.Client.ok l.Server.Client.failed;
    Format.printf "throughput: %.1f req/s sustained@." l.Server.Client.rps;
    Format.printf "latency   : mean %.2f ms, p50 %.2f ms, p99 %.2f ms@."
      l.Server.Client.mean_ms l.Server.Client.p50_ms l.Server.Client.p99_ms
  | None ->
    (* scripted burst: --mix sweeps workload x engine x {fault-free,
       faulty}; otherwise --count sequential requests stepping the seed *)
    let scenarios =
      if mix then
        List.concat_map
          (fun w ->
            List.concat_map
              (fun e ->
                List.map
                  (fun r -> { base with Server.Scenario.workload = w;
                              engine = e; rate = r })
                  (List.sort_uniq compare [ 0.0; rate ]))
              [ "pthreads"; "cpr"; "gprs" ])
          Workloads.Suite.names
      else
        List.init count (fun i ->
            { base with Server.Scenario.seed = seed + i })
    in
    let scenarios =
      List.mapi
        (fun i scn -> { scn with Server.Scenario.id = Printf.sprintf "c%d" i })
        scenarios
    in
    let t0 = Unix.gettimeofday () in
    let lats =
      List.map
        (fun scn ->
          let reply, ms = Server.Client.timed_run c scn in
          let ev =
            Result.value ~default:"?"
              (Server.Json.str ~default:"?" "event" reply)
          in
          (if ev <> "done" then begin
             incr failures;
             Format.printf "%-14s %-8s rate %-4g FAILED: %s@."
               scn.Server.Scenario.workload scn.Server.Scenario.engine
               scn.Server.Scenario.rate (Server.Json.to_string reply)
           end
           else
             match if verify then verify_against_local scn reply else None with
             | Some msg ->
               incr failures;
               Format.printf "%-14s %-8s rate %-4g MISMATCH: %s@."
                 scn.Server.Scenario.workload scn.Server.Scenario.engine
                 scn.Server.Scenario.rate msg
             | None ->
               Format.printf "%-14s %-8s rate %-4g ok  %7.2f ms  %s@."
                 scn.Server.Scenario.workload scn.Server.Scenario.engine
                 scn.Server.Scenario.rate ms
                 (Result.value ~default:"?"
                    (Server.Json.str ~default:"?" "digest" reply)));
          ms)
        scenarios
    in
    let wall = Unix.gettimeofday () -. t0 in
    let n = List.length lats in
    let sorted = Array.of_list lats in
    Array.sort compare sorted;
    let pick p =
      if n = 0 then 0.
      else
        sorted.(Stdlib.max 0
                  (Stdlib.min (n - 1)
                     (int_of_float (Float.ceil (p /. 100. *. float_of_int n))
                      - 1)))
    in
    Format.printf
      "summary   : %d requests, %d failed, %.1f req/s, p50 %.2f ms, p99 %.2f        ms%s@."
      n !failures
      (if wall > 0. then float_of_int n /. wall else 0.)
      (pick 50.) (pick 99.)
      (if verify then " (verified against one-shot)" else ""));
  if show_stats then
    Format.printf "stats     : %s@."
      (Server.Json.to_string (Server.Client.stats c));
  if do_shutdown then Server.Client.shutdown c;
  Server.Client.close c;
  if !failures > 0 then Stdlib.exit 1

(* --- faultsweep subcommand -------------------------------------------- *)

(* JSON scenario matrix over the named-fault-point space; the heavy
   lifting lives in Faultsweep.run_matrix. Progress goes to stderr so
   stdout stays pure results JSON when --out is omitted. *)
let faultsweep_run matrix seed iters scenarios out quiet =
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let fail msg =
    Format.eprintf "gprs_run faultsweep: %s@." msg;
    Stdlib.exit 2
  in
  let text = try read_file matrix with Sys_error e -> fail e in
  let j =
    match Server.Json.of_string text with
    | Ok j -> j
    | Error e -> fail (Printf.sprintf "%s: bad JSON: %s" matrix e)
  in
  let only =
    if scenarios = "" then []
    else
      String.split_on_char ',' scenarios
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
  in
  let log = if quiet then fun _ -> () else fun l -> Format.eprintf "%s@." l in
  match Faultsweep.run_matrix ~only ~seed ~iters ~log j with
  | Error msg -> fail msg
  | Ok (results, ok) ->
    let line = Server.Json.to_string results in
    (match out with
    | None -> print_endline line
    | Some path ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc line;
          output_char oc '\n'));
    if not ok then Stdlib.exit 1

(* --- terms ------------------------------------------------------------ *)

(* A string option restricted to [names]: anything else is a usage
   error (exit 124), not a silent fallback. *)
let one_of names = Arg.enum (List.map (fun n -> (n, n)) names)

let workload =
  let doc =
    Printf.sprintf "Workload: %s." (String.concat ", " Workloads.Suite.names)
  in
  Arg.(value & opt (one_of Workloads.Suite.names) "pbzip2"
       & info [ "w"; "workload" ] ~doc)

let engine =
  let doc = "Engine: pthreads, cpr, or gprs." in
  Arg.(value & opt (one_of Server.Scenario.engines) "gprs"
       & info [ "e"; "engine" ] ~doc)

let contexts = Arg.(value & opt int 24 & info [ "contexts"; "n" ] ~doc:"Hardware contexts.")
let scale = Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Input scale.")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.")
let rate = Arg.(value & opt float 0.0 & info [ "rate" ] ~doc:"Exceptions per second.")
let grain =
  Arg.(value & opt (one_of (List.map fst Server.Scenario.grains)) "default"
       & info [ "grain" ] ~doc:"default or fine.")

let ordering =
  Arg.(value & opt (one_of (List.map fst Server.Scenario.orderings)) "balance-aware"
       & info [ "ordering" ]
           ~doc:
             "GPRS ordering: round-robin, balance-aware, weighted, or recorded \
              (nondeterministic; dynamic order recorded for selective restart).")

let interval =
  Arg.(value & opt float 0.05 & info [ "interval" ] ~doc:"CPR checkpoint interval (s).")

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print run statistics.")

let profile_flag =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:
             "Profile the dispatch mix: per-instruction-kind dispatch counts, \
              the fused-hop-length histogram, and trace-compiler and pool \
              counters.")

let strict_lint =
  Arg.(value & flag
       & info [ "strict-lint" ]
           ~doc:
             "Refuse to run (exit 2) if GPRS-lint finds error-severity \
              issues in the workload program.")

let no_lint =
  Arg.(value & flag
       & info [ "no-lint" ] ~doc:"Skip the pre-execution GPRS-lint pass.")

let run_term =
  Term.(
    const run $ workload $ engine $ contexts $ scale $ seed $ rate $ grain
    $ ordering $ interval $ stats $ profile_flag $ strict_lint $ no_lint)

let run_cmd =
  let doc = "run one workload under pthreads / CPR / GPRS" in
  Cmd.v (Cmd.info "run" ~doc) run_term

let lint_workload_pos =
  let doc =
    Printf.sprintf
      "Workload to lint (%s), or $(b,all) for the whole suite."
      (String.concat ", " Workloads.Suite.names)
  in
  Arg.(value & pos 0 string "all" & info [] ~docv:"WORKLOAD" ~doc)

let lint_verbose =
  Arg.(value & flag
       & info [ "verbose"; "v" ]
           ~doc:"Also print info-severity findings (barrier coverage, ...).")

let json_flag =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:
             "Emit machine-readable JSON (kind, proc, pc, sites) instead of \
              the ASCII table.")

let lint_cmd =
  let doc =
    "statically analyze a workload program: lock discipline, deadlock \
     order, CPR-region / hybrid-recovery soundness, unprotected races"
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const lint_cmd_run $ lint_workload_pos $ contexts $ scale $ grain
      $ lint_verbose $ json_flag)

let racecheck_workload_pos =
  let doc =
    Printf.sprintf
      "Workload to race-check (%s), or $(b,all) for the whole suite."
      (String.concat ", " Workloads.Suite.names)
  in
  Arg.(value & pos 0 string "all" & info [] ~docv:"WORKLOAD" ~doc)

let racecheck_cmd =
  let doc =
    "cross-validated race detection: static lockset analysis plus a \
     dynamic vector-clock (FastTrack) sanitized run; exits 1 if either \
     side reports a race"
  in
  Cmd.v
    (Cmd.info "racecheck" ~doc)
    Term.(
      const racecheck_run $ racecheck_workload_pos $ engine $ contexts
      $ scale $ grain $ seed $ json_flag)

let sweep_workload_pos =
  let doc =
    Printf.sprintf "Workload to sweep (%s)."
      (String.concat ", " Workloads.Suite.names)
  in
  Arg.(value & pos 0 string "pbzip2" & info [] ~docv:"WORKLOAD" ~doc)

let crash_sample =
  Arg.(value & opt int 0
       & info [ "crash-sample" ]
           ~doc:
             "Exercise only N seeded-sampled crash points per leg instead \
              of every WAL-record boundary (0 = exhaustive).")

let sweep_schemes =
  Arg.(value & opt string "rr,bal,wt"
       & info [ "schemes" ]
           ~doc:"Comma-separated GPRS ordering legs: rr, bal, wt.")

let no_pcpr =
  Arg.(value & flag
       & info [ "no-pcpr" ] ~doc:"Skip the P-CPR comparison leg.")

let crashsweep_json =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:
             "Emit one machine-readable JSON line — per-leg, per-crash-point \
              normalized failure signatures (the faultsweep vocabulary) — \
              instead of the ASCII report.")

let crashsweep_cmd =
  let doc =
    "crash the whole runtime at every WAL-record boundary, cold-recover \
     (ARIES analysis/redo/undo + precise restart), and require the \
     fault-free digest; exits 1 on any mismatch"
  in
  Cmd.v
    (Cmd.info "crashsweep" ~doc)
    Term.(
      const crashsweep_run $ sweep_workload_pos $ contexts $ scale $ seed
      $ crash_sample $ sweep_schemes $ no_pcpr $ crashsweep_json)

let serve_port =
  Arg.(value & opt int 7477
       & info [ "p"; "port" ]
           ~doc:"TCP port to listen on (loopback only); 0 picks one.")

let serve_sock =
  Arg.(value & opt (some string) None
       & info [ "sock" ]
           ~doc:"Listen on a Unix-domain socket at $(docv) instead of TCP."
           ~docv:"PATH")

let serve_jobs =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ]
           ~doc:"Worker domains executing requests concurrently.")

let serve_depth =
  Arg.(value & opt int 64
       & info [ "depth" ]
           ~doc:
             "Admission bound: queued-or-running work units beyond which \
              new requests are shed with a 429-style error.")

let serve_cache =
  Arg.(value & opt int 32
       & info [ "cache" ]
           ~doc:
             "Program-cache capacity: decoded workloads with their \
              compiled superblocks and lint verdicts, LRU-evicted past it.")

let serve_idle_ms =
  Arg.(value & opt int 200
       & info [ "idle-ms" ]
           ~doc:
             "Join idle request-pool worker domains after this many ms \
              without traffic; 0 disables.")

(* Accepts only 1. Kept because the frozen benchmark suite starts
   [serve --par-j 1]; remove it in the next benchmark change. *)
let serve_par_j =
  Arg.(value & opt (enum [ ("1", ()) ]) ()
       & info [ "par-j" ] ~doc:"Accepted for compatibility; only 1 is valid.")

let serve_allow_fault =
  Arg.(value & flag
       & info [ "allow-fault-injection" ]
           ~doc:
             "Serve the $(b,fault) protocol verb: arm/reset/inspect named \
              fault points in the daemon process. Off by default — an armed \
              point perturbs every request the process serves.")

let serve_cmd =
  let doc =
    "persistent simulation daemon: newline-delimited JSON scenario \
     requests over TCP or a Unix socket, with cross-request program \
     caching, request coalescing and bounded admission"
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve_run $ serve_port $ serve_sock $ serve_jobs $ serve_depth
      $ serve_cache $ serve_idle_ms $ serve_par_j $ serve_allow_fault)

let client_port =
  Arg.(value & opt int 7477
       & info [ "p"; "port" ]
           ~doc:"Daemon TCP port to connect to (loopback).")

let client_sock =
  Arg.(value & opt (some string) None
       & info [ "sock" ]
           ~doc:"Connect to the daemon's Unix-domain socket at $(docv) \
                 instead of TCP."
           ~docv:"PATH")

let client_retries =
  Arg.(value & opt int 3
       & info [ "connect-retries" ]
           ~doc:
             "Re-attempts after a failed connect, with exponential backoff \
              (50 ms doubling, 2 s cap) — lets a client start concurrently \
              with its daemon instead of racing it with sleeps.")

let client_count =
  Arg.(value & opt int 1
       & info [ "count" ]
           ~doc:
             "Requests to send: sequential, stepping the seed (or arrival \
              count under $(b,--open-loop)).")

let client_mix =
  Arg.(value & flag
       & info [ "mix" ]
           ~doc:
             "Burst the full matrix instead: every workload x every engine, \
              fault-free and (if --rate > 0) faulty.")

let client_open_loop =
  Arg.(value & opt (some float) None
       & info [ "open-loop" ]
           ~doc:
             "Open-loop mode: send $(b,--count) arrivals at $(docv) \
              requests/s regardless of completions and report sustained \
              throughput and p50/p99 latency."
           ~docv:"RPS")

let client_verify =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:
             "Re-run every scenario one-shot in-process and require \
              bit-identical digest, cycles and DNC from the daemon; exits 1 \
              on any mismatch.")

let client_stats =
  Arg.(value & flag
       & info [ "server-stats" ] ~doc:"Print the daemon's stats line after.")

let client_shutdown =
  Arg.(value & flag
       & info [ "shutdown" ] ~doc:"Ask the daemon to shut down when done.")

let client_cmd =
  let doc =
    "scripted and open-loop load driver for a running $(b,gprs_run serve) \
     daemon; verifies daemon results against one-shot runs"
  in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(
      const client_run $ client_port $ client_sock $ client_retries $ workload
      $ engine $ contexts $ scale $ seed $ rate $ grain $ ordering $ interval
      $ client_count $ client_mix $ client_open_loop $ client_verify
      $ client_stats $ client_shutdown)

let fs_matrix =
  Arg.(required & opt (some string) None
       & info [ "matrix" ] ~docv:"FILE"
           ~doc:"JSON scenario matrix (see README, Fault injection).")

let fs_seed =
  Arg.(value & opt int 0
       & info [ "seed" ]
           ~env:(Cmd.Env.info "GPRS_FAULTSWEEP_SEED")
           ~doc:
             "Seed offset added to every scenario's run seed; the same seed \
              replays the sweep byte-for-byte.")

let fs_iters =
  Arg.(value & opt int 1
       & info [ "iters" ]
           ~env:(Cmd.Env.info "GPRS_FAULTSWEEP_ITERS")
           ~doc:"Run each scenario N times at consecutive seed offsets.")

let fs_scenarios =
  Arg.(value & opt string ""
       & info [ "scenarios" ]
           ~env:(Cmd.Env.info "GPRS_FAULTSWEEP_SCENARIOS")
           ~doc:
             "Comma-separated scenario names to run (others skipped); a \
              trigger-expanded row matches its base name too.")

let fs_out =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the results JSON to $(docv) instead of stdout.")

let fs_quiet =
  Arg.(value & flag
       & info [ "quiet"; "q" ] ~doc:"Suppress per-scenario progress lines.")

let faultsweep_cmd =
  let doc =
    "run a JSON scenario matrix over the named fault points (point x \
     action x trigger count x workload x engine x seed), classify every \
     outcome into a normalized failure signature, and emit machine-readable \
     results; exits 1 on wrong-digest / analysis-mismatch / arm-rejected, \
     2 on a malformed matrix"
  in
  Cmd.v
    (Cmd.info "faultsweep" ~doc)
    Term.(
      const faultsweep_run $ fs_matrix $ fs_seed $ fs_iters $ fs_scenarios
      $ fs_out $ fs_quiet)

let cmd =
  let doc =
    "run (or statically lint) one workload under pthreads / CPR / GPRS on \
     the simulated machine"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Subcommands ($(b,gprs_run CMD --help) for details; no subcommand \
         means $(b,run)):";
      `I ("$(b,run)", "run one workload under pthreads / CPR / GPRS.");
      `I
        ( "$(b,lint)",
          "statically analyze a workload: lock discipline, deadlock order, \
           CPR-region soundness, unprotected races." );
      `I
        ( "$(b,racecheck)",
          "cross-validated race detection: static lockset pass plus a \
           dynamic vector-clock sanitized run." );
      `I
        ( "$(b,crashsweep)",
          "crash at every WAL-record boundary, cold-recover, and require \
           the fault-free digest." );
      `I
        ( "$(b,faultsweep)",
          "run a JSON scenario matrix over the named fault points and \
           classify every outcome into a normalized failure signature." );
      `I
        ( "$(b,serve)",
          "persistent simulation daemon with cross-request program caching \
           and bounded admission (JSON lines over TCP / Unix socket)." );
      `I
        ( "$(b,client)",
          "scripted and open-loop load driver for a running daemon, with \
           one-shot verification." );
    ]
  in
  Cmd.group ~default:run_term
    (Cmd.info "gprs_run" ~doc ~man)
    [
      run_cmd;
      lint_cmd;
      racecheck_cmd;
      crashsweep_cmd;
      faultsweep_cmd;
      serve_cmd;
      client_cmd;
    ]

let () = Stdlib.exit (Cmd.eval cmd)
