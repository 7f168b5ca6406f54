(* Named fault points: registry semantics, seam soundness (skip/delay
   arms never perturb digests; crash/torn arms end in recovery or an
   explicit refusal, never silent divergence), torn-write truncation
   coverage, the wait_until_triggered directed race window, the
   daemon's fault verb, and faultsweep driver determinism. *)

module Points = Faults.Points

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

(* Every test leaves the process-global registry clean, pass or fail:
   a leaked arm would perturb every later suite in this binary. *)
let clean f () =
  Points.reset_all ();
  Fun.protect ~finally:Points.reset_all f

let workload name scale =
  let spec = Workloads.Suite.find name in
  let program =
    spec.Workloads.Workload.build ~n_contexts:4
      ~grain:Workloads.Workload.Default ~scale
  in
  (spec, program)

let gprs_cfg ?(wal_stable = false) () =
  { Gprs.Engine.default_config with n_contexts = 4; seed = 3; wal_stable }

let arm_ok ?start_hit ?end_hit ?delay_us p a =
  match Points.arm ?start_hit ?end_hit ?delay_us p a with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("arm refused: " ^ m)

(* --- registry ---------------------------------------------------------- *)

let test_names () =
  List.iter
    (fun p ->
      match Points.of_name (Points.to_name p) with
      | Some q -> checkb (Points.to_name p) true (p = q)
      | None -> Alcotest.fail ("name does not round-trip: " ^ Points.to_name p))
    Points.all;
  checkb "unknown name" true (Points.of_name "bogus" = None)

let test_arm_validation () =
  (* unsound combos are refused up front, not at fire time *)
  checkb "skip at wal_append refused" true
    (Result.is_error (Points.arm Points.Wal_append Points.Skip));
  checkb "crash at recovery_redo refused" true
    (Result.is_error (Points.arm Points.Recovery_redo Points.Crash));
  checkb "torn outside wal refused" true
    (Result.is_error (Points.arm Points.Lock_handoff Points.Torn_write));
  checkb "inverted window refused" true
    (Result.is_error
       (Points.arm ~start_hit:5 ~end_hit:2 Points.Wal_append Points.Crash));
  checkb "zero start refused" true
    (Result.is_error
       (Points.arm ~start_hit:0 Points.Wal_append Points.Crash));
  (* the supported matrix is what arm enforces *)
  List.iter
    (fun p ->
      List.iter
        (fun a ->
          checkb
            (Points.to_name p ^ "/" ^ Points.action_name a)
            true
            (Result.is_ok (Points.arm p a)))
        (Points.supported p))
    Points.all

let test_counters_and_window () =
  arm_ok ~start_hit:2 ~end_hit:3 ~delay_us:0 Points.Lock_handoff Points.Delay;
  checki "armed" 1 (Points.armed_count ());
  ignore (Points.sample Points.Lock_handoff);
  ignore (Points.sample Points.Lock_handoff);
  ignore (Points.sample Points.Lock_handoff);
  ignore (Points.sample Points.Lock_handoff);
  let st = Points.status Points.Lock_handoff in
  checki "hits" 4 st.Points.s_hits;
  checki "fires only inside [2,3]" 2 st.Points.s_fires;
  Points.disarm Points.Lock_handoff;
  checki "disarmed" 0 (Points.armed_count ());
  (* disarm keeps counters inspectable; reset clears them *)
  checki "counters survive disarm" 4
    (Points.status Points.Lock_handoff).Points.s_hits;
  checkb "status_all keeps the row" true
    (List.exists
       (fun s -> s.Points.s_point = Points.Lock_handoff)
       (Points.status_all ()));
  Points.reset Points.Lock_handoff;
  checki "reset zeroes" 0 (Points.status Points.Lock_handoff).Points.s_hits

let test_env_arming () =
  Unix.putenv "GPRS_FAULT_POINTS" "lock_handoff=delay:0@2-3,wal_append=crash@5";
  (match Points.arm_from_env () with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let st = Points.status Points.Lock_handoff in
  checkb "delay armed" true (st.Points.s_action = Some Points.Delay);
  checki "window lo" 2 st.Points.s_start;
  checki "window hi" 3 st.Points.s_end;
  checki "delay 0" 0 st.Points.s_delay_us;
  checkb "crash armed" true
    ((Points.status Points.Wal_append).Points.s_action = Some Points.Crash);
  Points.reset_all ();
  Unix.putenv "GPRS_FAULT_POINTS" "wal_append=skip";
  checkb "unsound clause rejected" true (Result.is_error (Points.arm_from_env ()));
  (* a retired point is an unknown name, not a silently ignored one *)
  Unix.putenv "GPRS_FAULT_POINTS" "window_commit=delay:0";
  (match Points.arm_from_env () with
  | Ok () -> Alcotest.fail "retired point window_commit armed"
  | Error m ->
    checks "window_commit is an unknown point"
      {|clause "window_commit=delay:0": unknown point "window_commit"|} m);
  checki "nothing armed" 0 (Points.armed_count ());
  Unix.putenv "GPRS_FAULT_POINTS" ""

(* --- unarmed / benign arms are invisible ------------------------------- *)

let test_delay_zero_invisible () =
  (* A delay:0 arm exercises every seam's armed path without touching
     simulated state: digest AND cycle count must match the unarmed
     run — the faultsweep "no perturbation" contract (DESIGN.md §7). *)
  let spec, program = workload "wordcount" 0.05 in
  let off = Gprs.Engine.run ~lint:`Off (gprs_cfg ()) program in
  arm_ok ~delay_us:0 Points.Lock_handoff Points.Delay;
  arm_ok ~delay_us:0 Points.Wal_append Points.Delay;
  arm_ok ~delay_us:0 Points.Checkpoint_begin Points.Delay;
  let on = Gprs.Engine.run ~lint:`Off (gprs_cfg ()) program in
  checkb "seams were exercised" true
    ((Points.status Points.Lock_handoff).Points.s_fires > 0);
  checks "digest" (spec.Workloads.Workload.digest off)
    (spec.Workloads.Workload.digest on);
  checki "cycles" off.Exec.State.sim_cycles on.Exec.State.sim_cycles

let test_checkpoint_skip_invisible () =
  (* Eliding every retirement checkpoint changes durability, not
     output: digest and cycles are identical (checkpoints are charged
     no simulated cycles). *)
  let spec, program = workload "histogram" 0.05 in
  let off = Gprs.Engine.run ~lint:`Off (gprs_cfg ~wal_stable:true ()) program in
  arm_ok Points.Checkpoint_begin Points.Skip;
  let on = Gprs.Engine.run ~lint:`Off (gprs_cfg ~wal_stable:true ()) program in
  checkb "skipped at least one checkpoint" true
    ((Points.status Points.Checkpoint_begin).Points.s_fires > 0);
  checks "digest" (spec.Workloads.Workload.digest off)
    (spec.Workloads.Workload.digest on);
  checki "cycles" off.Exec.State.sim_cycles on.Exec.State.sim_cycles

(* --- crash / error / torn at engine seams ------------------------------ *)

let test_crash_point_recovers () =
  let spec, program = workload "pbzip2" 0.02 in
  let want =
    spec.Workloads.Workload.digest
      (Gprs.Engine.run ~lint:`Off (gprs_cfg ()) program)
  in
  arm_ok ~start_hit:7 ~end_hit:7 Points.Wal_append Points.Crash;
  match Gprs.Engine.run ~lint:`Off (gprs_cfg ~wal_stable:true ()) program with
  | _ -> Alcotest.fail "armed crash never fired"
  | exception Gprs.Engine.Crashed dump ->
    Points.reset_all ();
    let _a, _secs, resume = Recovery.recover dump in
    let r = resume () in
    checkb "completes" false r.Exec.State.dnc;
    checks "bit-identical" want (spec.Workloads.Workload.digest r)

let test_error_points_surface () =
  let _, program = workload "wordcount" 0.05 in
  arm_ok Points.Lock_handoff Points.Error;
  checkb "lock timeout surfaces" true
    (match Gprs.Engine.run ~lint:`Off (gprs_cfg ()) program with
    | _ -> false
    | exception Points.Fault_error _ -> true);
  Points.reset_all ();
  let _, program = workload "pbzip2" 0.02 in
  arm_ok Points.Alloc_grant Points.Error;
  checkb "allocator failure surfaces" true
    (match Gprs.Engine.run ~lint:`Off (gprs_cfg ()) program with
    | _ -> false
    | exception Points.Fault_error _ -> true)

let test_torn_write_refused () =
  let _, program = workload "pbzip2" 0.02 in
  arm_ok ~start_hit:6 ~end_hit:6 Points.Wal_append Points.Torn_write;
  match Gprs.Engine.run ~lint:`Off (gprs_cfg ~wal_stable:true ()) program with
  | _ -> Alcotest.fail "torn write never fired"
  | exception Gprs.Engine.Crashed dump ->
    Points.reset_all ();
    checkb "recovery refuses the torn image" true
      (match Recovery.recover dump with
      | _ -> false
      | exception Wal.Corrupt _ -> true)

(* Exhaustive truncation sweep: cut the stable image after every byte.
   A cut inside a line is a torn record — parse must refuse. A cut at a
   line boundary is a valid shorter image (clean shutdown mid-history):
   analysis either succeeds or refuses a checkpoint-less prefix, and
   recovery from a mid-line cut must refuse end to end. *)
let test_truncation_boundaries () =
  let _, program = workload "histogram" 0.05 in
  let cfg = { (gprs_cfg ()) with Gprs.Engine.crash_lsn = Some 25 } in
  match Gprs.Engine.run ~lint:`Off cfg program with
  | _ -> Alcotest.fail "crash never fired"
  | exception Gprs.Engine.Crashed dump ->
    let image = Gprs.Engine.dump_wal_image dump in
    let n = String.length image in
    checkb "image non-trivial" true (n > 100);
    let mid_line_refused = ref 0 and boundary_ok = ref 0 in
    (* a cut keeping everything up to (or up to-but-excluding) a newline
       is a record boundary: the prefix is a well-formed shorter image *)
    let boundary cut = image.[cut - 1] = '\n' || image.[cut] = '\n' in
    for cut = 1 to n - 1 do
      let prefix = String.sub image 0 cut in
      if boundary cut then begin
        (* line boundary: a well-formed shorter history *)
        (match Recovery.analyze prefix with
        | _ -> ()
        | exception Wal.Corrupt _ -> ());
        incr boundary_ok
      end
      else
        match Wal.parse_image prefix with
        | _ ->
          Alcotest.fail
            (Printf.sprintf "mid-line cut at %d parsed as valid" cut)
        | exception Wal.Corrupt _ -> incr mid_line_refused
    done;
    checkb "swept mid-line cuts" true (!mid_line_refused > 0);
    checkb "swept boundary cuts" true (!boundary_ok > 0);
    (* end to end: recovery of a mid-line truncation refuses *)
    let cut = ref (n - 1) in
    while boundary !cut do decr cut done;
    checkb "recover refuses truncation" true
      (match
         Recovery.recover ~mangle:(fun s -> String.sub s 0 !cut) dump
       with
      | _ -> false
      | exception Wal.Corrupt _ -> true)

(* --- wait_until_triggered: a directed race window ---------------------- *)

let test_wait_immediate_and_timeout () =
  checkb "n<=0 immediate" true (Points.wait_until_triggered Points.Wal_fsync 0);
  checkb "times out unarmed" false
    (Points.wait_until_triggered ~timeout_s:0.05 Points.Wal_fsync 1)

let test_checkpoint_window_crash () =
  (* The directed schedule a racy sleep cannot express: block until the
     B record of a retirement checkpoint is provably written, then let
     the armed crash land before the matching E. The stable image must
     show B-without-E and recovery must fall back to the previous
     complete checkpoint, bit-identically. *)
  let spec, program = workload "histogram" 0.05 in
  let want =
    spec.Workloads.Workload.digest
      (Gprs.Engine.run ~lint:`Off (gprs_cfg ()) program)
  in
  arm_ok ~delay_us:0 Points.Checkpoint_begin Points.Delay;
  arm_ok ~start_hit:1 ~end_hit:1 Points.Checkpoint_end Points.Crash;
  let outcome = ref `Pending in
  let t =
    Thread.create
      (fun () ->
        outcome :=
          match
            Gprs.Engine.run ~lint:`Off (gprs_cfg ~wal_stable:true ()) program
          with
          | _ -> `Completed
          | exception Gprs.Engine.Crashed d -> `Crashed d
          | exception e -> `Raised e)
      ()
  in
  checkb "checkpoint_begin observed" true
    (Points.wait_until_triggered ~timeout_s:30.0 Points.Checkpoint_begin 1);
  Thread.join t;
  match !outcome with
  | `Pending -> Alcotest.fail "runner never finished"
  | `Completed -> Alcotest.fail "crash inside the checkpoint window never fired"
  | `Raised e -> raise e
  | `Crashed dump ->
    Points.reset_all ();
    (* the image ends with a B that never got its E *)
    let recs = Wal.parse_image (Gprs.Engine.dump_wal_image dump) in
    let rec last_ckpt acc = function
      | [] -> acc
      | Wal.S_ckpt_begin _ :: tl -> last_ckpt `Begin tl
      | Wal.S_ckpt_end _ :: tl -> last_ckpt `End tl
      | _ :: tl -> last_ckpt acc tl
    in
    checkb "B without E" true (last_ckpt `None recs = `Begin);
    let _a, _secs, resume = Recovery.recover dump in
    let r = resume () in
    checkb "completes" false r.Exec.State.dnc;
    checks "bit-identical" want (spec.Workloads.Workload.digest r)

(* --- the daemon's fault verb ------------------------------------------- *)

let with_daemon ~allow_fault f =
  let d =
    Server.Daemon.start
      {
        Server.Daemon.default_config with
        addr = Server.Daemon.Tcp 0;
        allow_fault;
      }
  in
  Fun.protect ~finally:(fun () -> Server.Daemon.stop d) @@ fun () ->
  let c = Server.Client.connect (Server.Daemon.bound_addr d) in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () -> f d c

let jstr key j = Result.value ~default:"" (Server.Json.str ~default:"" key j)
let jint key j = Result.value ~default:(-1) (Server.Json.int ~default:(-1) key j)

let test_fault_verb_gated () =
  with_daemon ~allow_fault:false (fun _d c ->
      let r = Server.Client.fault c [ ("verb", Server.Json.Str "status") ] in
      checks "refused" "error" (jstr "event" r);
      checki "403" 403 (jint "code" r))

let test_fault_verb_arm_status_reset () =
  with_daemon ~allow_fault:true (fun d c ->
      let r =
        Server.Client.fault c
          [
            ("verb", Server.Json.Str "arm");
            ("point", Server.Json.Str "admission_enqueue");
            ("fault", Server.Json.Str "error");
          ]
      in
      checks "armed" "fault" (jstr "event" r);
      checki "stats reports armed points" 1
        (jint "fault_points" (Server.Daemon.stats_json d));
      (* a run request is shed by the injected admission fault *)
      let scn =
        {
          Server.Scenario.id = "f1";
          workload = "histogram";
          engine = "gprs";
          ordering = "balance-aware";
          contexts = 4;
          scale = 0.02;
          grain = "default";
          seed = 7;
          rate = 0.0;
          interval = 0.05;
          want_stats = false;
        }
      in
      let reply = Server.Client.run_sync c scn in
      checks "shed" "error" (jstr "event" reply);
      checki "429" 429 (jint "code" reply);
      (* unsound arm is refused over the wire too *)
      let bad =
        Server.Client.fault c
          [
            ("verb", Server.Json.Str "arm");
            ("point", Server.Json.Str "wal_append");
            ("fault", Server.Json.Str "skip");
          ]
      in
      checks "unsound refused" "error" (jstr "event" bad);
      let r = Server.Client.fault c [ ("verb", Server.Json.Str "reset_all") ] in
      checks "reset" "fault" (jstr "event" r);
      checki "disarmed" 0 (jint "fault_points" (Server.Daemon.stats_json d));
      (* disarmed, the same request executes normally *)
      let reply =
        Server.Client.run_sync c { scn with Server.Scenario.id = "f2" }
      in
      checks "runs clean after reset" "done" (jstr "event" reply))

(* --- faultsweep driver ------------------------------------------------- *)

let tiny_matrix =
  {|{ "defaults": { "workload": "histogram", "engine": "gprs",
                    "contexts": 4, "scale": 0.05, "seed": 1 },
     "scenarios": [
       { "name": "crash", "point": "wal_append", "action": "crash",
         "triggers": [4] },
       { "name": "quiet", "point": "wal_append", "action": "crash",
         "start": 999999 } ] }|}

let run_tiny ?only ?seed () =
  let j =
    match Server.Json.of_string tiny_matrix with
    | Ok j -> j
    | Error m -> Alcotest.fail m
  in
  match Faultsweep.run_matrix ?only ?seed j with
  | Ok (out, ok) -> (Server.Json.to_string out, ok)
  | Error m -> Alcotest.fail m

let test_faultsweep_deterministic () =
  let a, ok_a = run_tiny () in
  let b, ok_b = run_tiny () in
  checkb "all rows benign" true (ok_a && ok_b);
  checks "byte-identical replay" a b;
  (* signatures present in the rendered results *)
  let contains needle =
    let n = String.length needle and h = String.length a in
    let rec go i = i + n <= h && (String.sub a i n = needle || go (i + 1)) in
    go 0
  in
  checkb "ok signature" true (contains Recovery.Signature.ok);
  checkb "not-triggered signature" true
    (contains Recovery.Signature.not_triggered)

let test_faultsweep_filter_and_seed () =
  let a, _ = run_tiny ~only:[ "quiet" ] () in
  checkb "filter keeps one row" true
    (match Server.Json.of_string a with
    | Ok j -> Result.value ~default:(-1) (Server.Json.int "rows" j) = 1
    | Error _ -> false);
  let s0, _ = run_tiny ~seed:0 () in
  let s9, _ = run_tiny ~seed:9 () in
  checkb "seed changes the sweep" true (s0 <> s9);
  let s9', _ = run_tiny ~seed:9 () in
  checks "same seed replays" s9 s9'

let suite =
  [
    Alcotest.test_case "names round-trip" `Quick (clean test_names);
    Alcotest.test_case "arm validation" `Quick (clean test_arm_validation);
    Alcotest.test_case "trigger window and counters" `Quick
      (clean test_counters_and_window);
    Alcotest.test_case "GPRS_FAULT_POINTS arming" `Quick
      (clean test_env_arming);
    Alcotest.test_case "delay:0 arms are invisible" `Quick
      (clean test_delay_zero_invisible);
    Alcotest.test_case "checkpoint skip is invisible" `Quick
      (clean test_checkpoint_skip_invisible);
    Alcotest.test_case "crash point recovers bit-identically" `Quick
      (clean test_crash_point_recovers);
    Alcotest.test_case "error points surface as Fault_error" `Quick
      (clean test_error_points_surface);
    Alcotest.test_case "torn write is refused" `Quick
      (clean test_torn_write_refused);
    Alcotest.test_case "truncation boundary sweep" `Quick
      (clean test_truncation_boundaries);
    Alcotest.test_case "wait_until_triggered edge cases" `Quick
      (clean test_wait_immediate_and_timeout);
    Alcotest.test_case "directed checkpoint-window crash" `Quick
      (clean test_checkpoint_window_crash);
    Alcotest.test_case "fault verb gated without flag" `Quick
      (clean test_fault_verb_gated);
    Alcotest.test_case "fault verb arm/shed/status/reset" `Quick
      (clean test_fault_verb_arm_status_reset);
    Alcotest.test_case "faultsweep byte-deterministic" `Quick
      (clean test_faultsweep_deterministic);
    Alcotest.test_case "faultsweep filter and seed replay" `Quick
      (clean test_faultsweep_filter_and_seed);
  ]
