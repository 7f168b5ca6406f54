(* gprs_bench: the repository benchmark. One process runs one workload
   (`--workload all` runs each in its own child process) and prints every
   metric by name and unit, the correctness gate's result, and as its
   last line one JSON object:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
   run (`--trace 1`) records spans around every call into a layer and
   reports the per-layer metrics. See README.md for the workloads, the
   metrics and how to compare two sets of runs. *)

open Common

let workloads = [ "paper-eval"; "sim-steady"; "sim-faulty"; "crash-recovery"; "service-zipf" ]

let end_to_end =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_ms_p50", "ms"); ("op_ms_p90", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("workloads.build_ms", "ms"); ("vm.block.analyze_ms", "ms");
    ("vm.block.superblocks", "count"); ("lint.check_ms", "ms");
    ("pthreads.run_ms_p50", "ms"); ("gprs.run_ms_p50", "ms");
    ("gprs.us_per_subthread", "us"); ("gprs.subthreads", "count");
    ("gprs.tokens", "count"); ("gprs.sync_parks", "count");
    ("gprs.retired_frac", "ratio"); ("gprs.squashed_subs", "count");
    ("gprs.recoveries", "count"); ("gprs.restored_words", "count");
    ("gprs.wal_undone", "count"); ("cpr.run_ms_p50", "ms");
    ("cpr.checkpoints", "count"); ("cpr.snap_words_copied", "count");
    ("cpr.rollbacks", "count"); ("cpr.restored_words", "count");
    ("wal.records", "count"); ("wal.image_kb", "KB"); ("wal.parse_ms", "ms");
    ("recovery.crash_run_ms_p50", "ms"); ("recovery.analyze_ms_p50", "ms");
    ("recovery.restart_ms_p50", "ms"); ("recovery.resume_ms_p50", "ms");
    ("recovery.replayed_lsns", "count"); ("recovery.losers", "count");
    ("server.hit_ms_p50", "ms"); ("server.hit_ms_p90", "ms");
    ("server.miss_ms_p50", "ms"); ("server.miss_ms_p90", "ms");
    ("server.cache.hit_ratio", "ratio"); ("server.shed", "count");
    ("server.coalesced", "count"); ("server.exec_ms_p50", "ms");
    ("server.build_ms_p50", "ms"); ("server.codec_us_p50", "us");
    ("server.wait_ms_p50", "ms"); ("analysis.table2_s", "s");
    ("analysis.fig8a_s", "s"); ("analysis.fig8b_s", "s"); ("analysis.fig9_s", "s");
    ("analysis.fig10_s", "s"); ("analysis.fig11_s", "s");
    ("gc.minor_mwords", "Mwords"); ("gc.minor_kwords_per_op", "kwords");
    ("gc.major_collections", "count"); ("gc.pause_ms", "ms");
    ("gc.pause_ms_max", "ms"); ("gc.pause_frac", "ratio");
    ("sim.cycles_total", "count"); ("sim.dnc_runs", "count");
    ("bench.gen_lag_ms_p99", "ms"); ("bench.host_slowdown", "ratio"); ("trace.wall_s", "s");
    ("trace.overhead_frac", "ratio"); ("trace.unattributed_frac", "ratio");
  ]

(* A leg switch left set would measure a different program than the one
   users run. *)
let refused_env =
  [ "GPRS_NO_FUSE"; "GPRS_NO_COMPILE"; "GPRS_NO_POOL"; "GPRS_TSAN"; "GPRS_PAR_J"; "GPRS_FAULT_POINTS" ]

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  json : string option;
  gprs_run : string;
  out_dir : string;
  check_names : string option;
}

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let json_str s = Server.Json.to_string (Server.Json.Str s)

let metrics_obj ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, u, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n) (json_num v)
             (json_str u))
         ms)
  ^ "}"

let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (metrics_obj ms)

let git_commit () =
  let read f = try Some (String.trim (In_channel.with_open_text f In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" r) with Some c -> c | None -> "unknown")
  | Some c -> c
  | None -> "unknown (not a git checkout)"

let env_info o =
  [
    ("workload", o.workload);
    ("seed", string_of_int o.seed);
    ("seconds", Printf.sprintf "%g" o.seconds);
    ("trace", string_of_bool o.trace);
    ("size", if o.smoke then "smoke" else "full");
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("commit", git_commit ());
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

let span_metrics spans =
  let ls = Spans.layers spans in
  let find n = List.find_opt (fun l -> l.Spans.l_name = n) ls in
  let p50 n = match find n with Some l -> median l.Spans.l_durs | None -> 0.0 in
  let is_root l = l.Spans.l_name = "bench.setup" || l.Spans.l_name = "bench.pass" in
  let roots = List.filter (fun s -> s.Spans.parent < 0) spans in
  let wall = sum (List.map (fun s -> Spans.secs s.Spans.t0 s.Spans.t1) roots) in
  let unattributed = sum (List.map (fun l -> if is_root l then l.Spans.l_self_s else 0.0) ls) in
  ( ls,
    wall,
    [
      ("workloads.build_ms", 1000.0 *. p50 "Workloads.build");
      ("vm.block.analyze_ms", 1000.0 *. p50 "Vm.Block.analyze");
      ("lint.check_ms", 1000.0 *. p50 "Lint.Check.program");
      ("pthreads.run_ms_p50", 1000.0 *. p50 "Exec.Baseline.run");
      ("gprs.run_ms_p50", 1000.0 *. p50 "Gprs.Engine.run");
      ("cpr.run_ms_p50", 1000.0 *. p50 "Cpr.run");
      ("trace.wall_s", wall);
      ("trace.unattributed_frac", if wall > 0.0 then unattributed /. wall else 0.0);
    ]
    @ List.map
        (fun d -> ("analysis." ^ d ^ "_s", p50 ("Analysis.Experiments." ^ d)))
        [ "table2"; "fig8a"; "fig8b"; "fig9"; "fig10"; "fig11" ] )

let print_layer_table ls wall =
  Printf.printf "\nper-layer self time (traced wall %.3f s; self times sum to it)\n" wall;
  Printf.printf "  %-32s %10s %7s %8s\n" "layer" "self ms" "share" "calls";
  List.iter
    (fun l ->
      let name =
        if l.Spans.l_name = "bench.setup" || l.Spans.l_name = "bench.pass" then
          "unattributed (" ^ l.Spans.l_name ^ ")"
        else l.Spans.l_name
      in
      Printf.printf "  %-32s %10.1f %6.1f%% %8d\n" name (1000.0 *. l.Spans.l_self_s)
        (if wall > 0.0 then 100.0 *. l.Spans.l_self_s /. wall else 0.0)
        l.Spans.l_calls)
    ls

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

let run_workload o =
  match o.workload with
  | "paper-eval" -> Sims.paper_eval ~smoke:o.smoke ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
  | "sim-steady" -> Sims.sim ~faulty:false ~smoke:o.smoke ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
  | "sim-faulty" -> Sims.sim ~faulty:true ~smoke:o.smoke ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
  | "crash-recovery" ->
    Sims.crash_recovery ~smoke:o.smoke ~seconds:o.seconds ~trace:o.trace
  | "service-zipf" ->
    Service.run ~smoke:o.smoke ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
      ~gprs_run:o.gprs_run ~out_dir:o.out_dir
  | w -> invalid_arg ("unknown workload " ^ w)

(* Names the JSON file lists under [section], in order. *)
let benchmark_names path section =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Server.Json.of_string text with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j -> (
    match Server.Json.member section j with
    | Some (Server.Json.List items) ->
      List.filter_map
        (fun it ->
          match (Server.Json.member "name" it, Server.Json.member "unit" it) with
          | Some (Server.Json.Str n), Some (Server.Json.Str u) -> Some (n, u)
          | _ -> None)
        items
    | _ -> [])

let check_names path ~section ours =
  let theirs = benchmark_names path section in
  if theirs <> ours then begin
    Printf.eprintf "gprs_bench: %s in %s does not match the metrics the benchmark reports\n"
      section path;
    false
  end
  else true

let one o =
  (try Unix.mkdir o.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Exec.Par.set_jobs 1;
  let own_gc =
    if not o.trace then None
    else begin
      Runtime_events.start ();
      let g = Gc_pauses.create None in
      Spans.after_span := (fun () -> Gc_pauses.poll g);
      Spans.window := Gc_pauses.set_counting g;
      Some g
    end
  in
  let r = run_workload o in
  let t = r.tally in
  let correct = t.failed = 0 in
  let ms p = 1000.0 *. percentile p r.latency_s in
  (* End-to-end times at reference host speed (Calib); set-up time is
     divided repetition by repetition already. *)
  let slowdown = Calib.slowdown () in
  let at_ref (n, u, v) =
    match u with
    | "1/s" -> (n, u, v *. slowdown)
    | "s" | "ms" -> (n, u, v /. slowdown)
    | _ -> (n, u, v)
  in
  let e2e =
    (("setup_s", "s", median r.setup_s)
    :: List.map at_ref
         [ ("ops_per_s", "1/s", r.ops_per_s); ("op_ms_p50", "ms", ms 50.0); ("op_ms_p90", "ms", ms 90.0) ])
    @ [ ("peak_rss_mb", "MB", r.peak_rss_mb) ]
  in
  let named = List.map at_ref r.named in
  let failed_frac = if t.ops > 0 then float_of_int t.failed /. float_of_int t.ops else 0.0 in
  Printf.printf "gprs_bench %s\n" o.workload;
  List.iter (fun (k, v) -> Printf.printf "  %-12s %s\n" k v) (env_info o);
  List.iter (fun (k, v) -> Printf.printf "  %-12s %s\n" k v) r.sizes;
  Printf.printf "\nend-to-end (untraced%s; host times over the host slowdown %.3f, the best of %d)\n"
    (if o.trace then "; this run is traced" else "")
    slowdown (List.length !Calib.samples);
  let show (n, u, v) = Printf.printf "  %-26s %14.4f %s\n" n v u in
  List.iter show e2e;
  List.iter show named;
  show ("failed_frac", "ratio", failed_frac);
  let known = known_wrong t in
  Printf.printf "\ncorrectness gate: %d ops, %d failed, %d known-defect wrong answers%s\n"
    t.ops t.failed (List.length known)
    (if r.fingerprint = "" then "" else ", sim.fingerprint " ^ r.fingerprint);
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) (List.rev t.failures);
  List.iter (fun f -> Printf.printf "  known defect: %s\n" f) known;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) r.notes;
  let layer_values =
    if not o.trace then []
    else begin
      let spans = List.rev !Spans.recorded in
      let ls, wall, from_spans = span_metrics spans in
      print_layer_table ls wall;
      let gc =
        match own_gc with
        | None -> []
        | Some g ->
          Gc_pauses.close g;
          Gc_pauses.metrics g ~ops:!traced_ops
      in
      let superblocks =
        [ ("vm.block.superblocks", float_of_int (Hashtbl.fold (fun _ n a -> a + n) superblocks 0)) ]
      in
      (* the workload's own values win: it knows its process under test *)
      let merged =
        r.layer @ from_spans @ gc @ superblocks @ [ ("bench.host_slowdown", slowdown) ]
      in
      let value n = Option.value ~default:0.0 (List.assoc_opt n merged) in
      let out = List.map (fun (n, u) -> (n, u, value n)) per_layer in
      Printf.printf "\nper-layer metrics\n";
      List.iter show out;
      List.iter
        (fun (n, v) ->
          if not (List.mem_assoc n per_layer) then show (n, "", v))
        (List.sort_uniq compare merged);
      let path =
        Filename.concat o.out_dir (Printf.sprintf "trace-%s-%d.json" o.workload o.seed)
      in
      Spans.write path;
      Printf.printf "  spans written to %s\n" path;
      out
    end
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      let kv l = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ json_str v) l) ^ "}" in
      Printf.fprintf oc
        "{\"env\": %s, \"sizes\": %s, \"correct\": %b, \"ops\": %d, \"failed\": %d, \
         \"failures\": [%s], \"known_wrong\": %d, \"notes\": [%s], \"fingerprint\": %s, \
         \"end_to_end\": %s, \"named\": %s, \"per_layer\": %s, \"setup_samples_s\": [%s], \
         \"op_best_ms\": {%s}, \"host_slowdown\": [%s]}\n"
        (kv (env_info o)) (kv r.sizes) correct t.ops t.failed
        (String.concat ", " (List.map json_str (List.rev t.failures)))
        (List.length known)
        (String.concat ", " (List.map json_str r.notes))
        (json_str r.fingerprint) (metrics_obj e2e)
        (metrics_obj (named @ [ ("failed_frac", "ratio", failed_frac) ]))
        (metrics_obj layer_values)
        (String.concat ", " (List.map json_num r.setup_s))
        (String.concat ", "
           (List.map (fun (k, v) -> json_str k ^ ": " ^ json_num v) r.op_best_ms))
        (String.concat ", " (List.rev_map json_num !Calib.samples));
      close_out oc)
    o.json;
  let names_ok =
    match o.check_names with
    | None -> true
    | Some path ->
      check_names path ~section:"end_to_end" end_to_end
      && check_names path ~section:"per_layer" per_layer
  in
  print_endline
    (result_line ~correct ~attempted:t.ops ~failed:t.failed
       (if o.trace then layer_values else e2e));
  if names_ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* All workloads, one child process each                               *)
(* ------------------------------------------------------------------ *)

let all o =
  let child w =
    let args =
      Array.of_list
        (Sys.executable_name
        :: List.concat
             [
               [ "--workload"; w; "--seed"; string_of_int o.seed ];
               [ "--seconds"; Printf.sprintf "%g" o.seconds ];
               [ "--trace"; (if o.trace then "1" else "0") ];
               [ "--gprs-run"; o.gprs_run; "--out-dir"; o.out_dir ];
               (if o.smoke then [ "--smoke" ] else []);
               (match o.check_names with Some p -> [ "--check-names"; p ] | None -> []);
               (match o.json with Some p -> [ "--json"; p ^ "." ^ w ] | None -> []);
             ])
    in
    let rd, wr = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let last = ref "" in
    (try
       while true do
         let l = input_line ic in
         print_endline l;
         last := l
       done
     with End_of_file -> ());
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    (w, status, !last)
  in
  let results = List.map child workloads in
  let ok = ref true and attempted = ref 0 and failed = ref 0 and metrics = ref [] in
  List.iter
    (fun (w, status, line) ->
      match (status, Server.Json.of_string line) with
      | Unix.WEXITED 0, Ok j ->
        let int f = Result.value ~default:0 (Server.Json.int f j) in
        attempted := !attempted + int "attempted";
        failed := !failed + int "failed";
        if Server.Json.bool "correct" j <> Ok true then ok := false;
        (match Server.Json.member "metrics" j with
        | Some (Server.Json.Obj ms) ->
          List.iter
            (fun (n, m) ->
              let f k = Server.Json.member k m in
              match (f "value", f "unit") with
              | Some v, Some (Server.Json.Str u) ->
                let v = match v with Server.Json.Int i -> float_of_int i | Server.Json.Float x -> x | _ -> 0.0 in
                metrics := (w ^ "/" ^ n, u, v) :: !metrics
              | _ -> ())
            ms
        | _ -> ())
      | _ ->
        ok := false;
        Printf.eprintf "gprs_bench: workload %s did not produce a result\n" w)
    results;
  print_endline
    (result_line ~correct:!ok ~attempted:(Stdlib.max 1 !attempted) ~failed:!failed
       (List.rev !metrics));
  if !ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let main workload seed seconds trace smoke json gprs_run out_dir check_names =
  let set = List.filter (fun v -> Sys.getenv_opt v <> None) refused_env in
  if set <> [] then begin
    Printf.eprintf "gprs_bench: refusing to measure with %s set\n" (String.concat ", " set);
    2
  end
  else if workload <> "all" && not (List.mem workload workloads) then begin
    Printf.eprintf "gprs_bench: unknown workload %s (one of: all, %s)\n" workload
      (String.concat ", " workloads);
    2
  end
  else begin
    let seconds = if smoke then Float.min seconds 1.0 else seconds in
    let o =
      {
        workload;
        seed;
        seconds;
        trace = trace <> 0;
        smoke;
        json;
        gprs_run;
        out_dir;
        check_names;
      }
    in
    if workload = "all" then all o else one o
  end

open Cmdliner

let cmd =
  let workload =
    Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME"
           ~doc:"Workload to run: paper-eval, sim-steady, sim-faulty, crash-recovery, \
                 service-zipf, or all (each in its own process).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed for every generated input.") in
  let seconds =
    Arg.(value & opt float 20.0 & info [ "seconds" ]
           ~doc:"How long the timed part runs (whole passes; at least one).")
  in
  let trace =
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1"
           ~doc:"1: record spans, write them to OUT-DIR/trace-NAME-SEED.json and \
                 report the per-layer metrics instead of the end-to-end ones.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"Smoke size: every workload in a few seconds, same correctness gate.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write every metric, the sizes and the environment to $(docv).")
  in
  let gprs_run =
    Arg.(value & opt string "_build/default/bin/gprs_run.exe" & info [ "gprs-run" ]
           ~docv:"EXE" ~doc:"The gprs_run binary service-zipf starts as its daemon.")
  in
  let out_dir =
    Arg.(value & opt string ".bench_out" & info [ "out-dir" ] ~docv:"DIR"
           ~doc:"Directory for spans, the daemon socket and runtime-event rings.")
  in
  let check_names =
    Arg.(value & opt (some string) None & info [ "check-names" ] ~docv:"BENCHMARK.json"
           ~doc:"Fail unless the metric names and units in $(docv) are the ones reported.")
  in
  Cmd.v
    (Cmd.info "gprs_bench" ~doc:"the GPRS repository benchmark")
    Term.(
      const main $ workload $ seed $ seconds $ trace $ smoke $ json $ gprs_run $ out_dir
      $ check_names)

let () = Stdlib.exit (Cmd.eval' cmd)
