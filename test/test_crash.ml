(* Whole-runtime crash injection and ARIES-style cold recovery.

   The headline invariant: crash the runtime at every WAL-record
   boundary, cold-recover from the stable image, resume, and the final
   digest is bit-identical to the fault-free run — under all three
   ordering schemes, with a P-CPR comparison leg under the same crash
   schedule. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let workload name scale =
  let spec = Workloads.Suite.find name in
  let program =
    spec.Workloads.Workload.build ~n_contexts:4
      ~grain:Workloads.Workload.Default ~scale
  in
  (spec, program)

let prepared name scale =
  let spec, program = workload name scale in
  { Run.spec; program; blocks = Vm.Block.analyze program }

let gprs_cfg ?(ordering = Gprs.Order.Balance_aware) () =
  { Gprs.Engine.default_config with n_contexts = 4; seed = 3; ordering }

(* --- WAL stable image ------------------------------------------------- *)

let test_stable_roundtrip () =
  let w = Wal.create ~stable:true () in
  checkb "armed" true (Wal.stable_armed w);
  ignore (Wal.append w ~at:5 ~order:0 (Wal.Alloc { addr = 64; size = 8 }));
  ignore (Wal.append w ~at:6 ~order:1 (Wal.Thread_create { tid = 2 }));
  ignore (Wal.append w ~at:7 ~order:1 (Wal.Sched_enqueue { sub = 1 }));
  ignore (Wal.append w ~at:8 ~order:2 (Wal.Io_op { file = 0; words = 3 }));
  Wal.log_checkpoint w ~min_retired:1 ~active:[ 1; 2 ]
    ~brk:128
    ~free:[ (128, 64) ]
    ~used:[ (64, 8) ];
  ignore (Wal.append w ~at:9 ~order:2 (Wal.Free { addr = 64; size = 8 }));
  ignore (Wal.prune_below w ~order:1);
  ignore (Wal.squash w [ 2 ]);
  let image =
    match Wal.stable_image w with
    | Some s -> s
    | None -> Alcotest.fail "stable image missing"
  in
  let recs = Wal.parse_image image in
  (* every record class survives the round-trip *)
  let has p = List.exists p recs in
  checkb "op" true
    (has (function
      | Wal.S_op { at = 5; e } -> e.Wal.op = Wal.Alloc { addr = 64; size = 8 }
      | _ -> false));
  checkb "enqueue" true
    (has (function
      | Wal.S_op { e; _ } -> e.Wal.op = Wal.Sched_enqueue { sub = 1 }
      | _ -> false));
  checkb "prune" true
    (has (function Wal.S_prune { upto = 1; _ } -> true | _ -> false));
  checkb "drop" true
    (has (function Wal.S_drop { orders = [ 2 ]; _ } -> true | _ -> false));
  checkb "checkpoint" true
    (has (function
      | Wal.S_ckpt_end { min_retired = 1; brk = 128; free = [ (128, 64) ];
                         used = [ (64, 8) ]; _ } ->
        true
      | _ -> false))

let test_corrupt_image_detected () =
  let w = Wal.create ~stable:true () in
  ignore (Wal.append w ~at:1 ~order:0 (Wal.Alloc { addr = 8; size = 4 }));
  Wal.log_checkpoint w ~min_retired:0 ~active:[] ~brk:8 ~free:[] ~used:[];
  let image = Option.get (Wal.stable_image w) in
  (* flip one payload character: the record checksum must catch it *)
  let bad = Bytes.of_string image in
  let i = String.index image '8' in
  Bytes.set bad i '9';
  checkb "corrupt raises" true
    (match Wal.parse_image (Bytes.to_string bad) with
    | _ -> false
    | exception Wal.Corrupt _ -> true);
  checkb "checkpoint-less raises" true
    (match Recovery.analyze "" with
    | _ -> false
    | exception Wal.Corrupt _ -> true)

(* --- Stable arming is invisible --------------------------------------- *)

let test_stable_invisible () =
  let spec, program = workload "pbzip2" 0.02 in
  let off = Gprs.Engine.run (gprs_cfg ()) program in
  let on =
    Gprs.Engine.run
      { (gprs_cfg ()) with Gprs.Engine.wal_stable = true }
      program
  in
  checks "digest" (spec.Workloads.Workload.digest off)
    (spec.Workloads.Workload.digest on);
  Alcotest.(check int)
    "cycles" off.Exec.State.sim_cycles on.Exec.State.sim_cycles

(* --- Single crash points ---------------------------------------------- *)

let test_mangled_wal_refused () =
  let _, program = workload "pbzip2" 0.02 in
  let cfg = { (gprs_cfg ()) with Gprs.Engine.crash_lsn = Some 60 } in
  match Gprs.Engine.run cfg program with
  | _ -> Alcotest.fail "crash never fired"
  | exception Gprs.Engine.Crashed dump ->
    let mangle s =
      (* damage a mid-log record: recovery must refuse, not guess *)
      let b = Bytes.of_string s in
      Bytes.set b (String.length s / 2) '#';
      Bytes.to_string b
    in
    checkb "refused" true
      (match Recovery.recover ~mangle dump with
      | _ -> false
      | exception Wal.Corrupt _ -> true)

(* --- Sweeps ------------------------------------------------------------ *)

let sweep_leg name scale scheme =
  let r =
    Recovery.sweep_gprs ~leg:name
      ~cfg:(gprs_cfg ~ordering:scheme ())
      (prepared name scale)
  in
  checkb
    (Format.asprintf "%a" Recovery.pp_report r)
    true (Recovery.leg_ok r);
  checkb "points enumerated" true (r.Recovery.points_total > 0)

let test_sweep_histogram_rr () = sweep_leg "histogram" 0.05 Gprs.Order.Round_robin
let test_sweep_histogram_bal () = sweep_leg "histogram" 0.05 Gprs.Order.Balance_aware
let test_sweep_histogram_wt () = sweep_leg "histogram" 0.05 Gprs.Order.Weighted
let test_sweep_pbzip2_rr () = sweep_leg "pbzip2" 0.02 Gprs.Order.Round_robin
let test_sweep_pbzip2_bal () = sweep_leg "pbzip2" 0.02 Gprs.Order.Balance_aware
let test_sweep_pbzip2_wt () = sweep_leg "pbzip2" 0.02 Gprs.Order.Weighted

let test_sweep_sampled () =
  let r =
    Recovery.sweep_gprs ~sample:12 ~sample_seed:9 ~leg:"sampled"
      ~cfg:(gprs_cfg ()) (prepared "pbzip2" 0.05)
  in
  checkb "ok" true (Recovery.leg_ok r);
  Alcotest.(check int) "ran the sample" 12 r.Recovery.points_run;
  checkb "sampled strictly" true (r.Recovery.points_total > 12)

let test_sweep_pcpr_leg () =
  let p = prepared "pbzip2" 0.02 in
  let image, _ = Recovery.pilot ~cfg:(gprs_cfg ()) p in
  let a = Recovery.analyze image in
  let cycles =
    List.map snd a.Recovery.points |> List.sort_uniq compare
  in
  let r =
    Recovery.sweep_pcpr ~leg:"pcpr"
      ~cfg:{ Cpr.default_config with Cpr.n_contexts = 4; seed = 3 }
      ~crash_cycles:cycles p
  in
  checkb (Format.asprintf "%a" Recovery.pp_report r) true (Recovery.leg_ok r)

(* A run that wedges is an outcome, not a crash of the sweep: an
   [Exec.State.Deadlock] from the armed run or from the run resumed after
   cold recovery is hung-timeout, with the deadlock message as detail.
   The program wedges by construction: main waits on a two-party
   barrier that no other thread reaches. *)
let test_wedged_run_classified () =
  let b = Vm.Builder.proc "main" in
  Vm.Builder.compute b 100;
  Vm.Builder.barrier b 0;
  Vm.Builder.exit_ b;
  let p =
    Vm.Builder.program ~mem_words:64 ~barrier_parties:[| 2 |] ~entry:"main"
      [ Vm.Builder.finish b ]
  in
  List.iter
    (fun (name, crash_lsn) ->
      let recovered = ref false in
      let sg, detail =
        Recovery.classify_crash
          ~recovered:(fun _ _ -> recovered := true)
          ~want:"" ~digest:(fun _ -> "")
          ~finished:(fun _ -> (Recovery.Signature.ok, "finished"))
          (fun () -> Gprs.Engine.run { (gprs_cfg ()) with crash_lsn } p)
      in
      checkb (name ^ ": cold recovery ran") (crash_lsn <> None) !recovered;
      checks (name ^ ": hung-timeout") Recovery.Signature.hung sg;
      checkb
        (name ^ ": detail names the deadlock")
        true
        (String.starts_with ~prefix:"gprs:" detail))
    [ ("unarmed", None); ("resumed after a crash", Some 2) ]

(* Every field of the analysis, recomputed one at a time from the parsed
   records, at 60 record boundaries spread over a stable image whose run
   pruned and, under injected exceptions, squashed and dropped. *)
let test_analysis_fields () =
  let cfg =
    { (gprs_cfg ()) with injector = Faults.Injector.config ~seed:5 2000.0 }
  in
  let image, _ = Recovery.pilot ~cfg (prepared "re" 0.05) in
  let lines = List.length (String.split_on_char '\n' image) in
  let analyzed = ref 0 and drops = ref 0 and line = ref 0 in
  String.iteri
    (fun stop c ->
      if c = '\n' then incr line;
      if c = '\n' && !line mod (1 + (lines / 60)) = 0 then
        let prefix = String.sub image 0 (stop + 1) in
        match Recovery.analyze prefix with
        | exception Wal.Corrupt _ -> () (* no complete checkpoint yet *)
        | a ->
          incr analyzed;
          let recs = Wal.parse_image prefix in
          let ops =
            List.filter_map (function Wal.S_op { at; e } -> Some (at, e) | _ -> None) recs
          in
          let horizon =
            List.fold_left
              (fun h -> function
                | Wal.S_prune { upto; _ } -> max h upto
                | Wal.S_ckpt_end { min_retired; _ } -> max h min_retired
                | _ -> h)
              0 recs
          in
          let dropped =
            List.sort_uniq compare
              (List.concat_map (function Wal.S_drop { orders; _ } -> orders | _ -> []) recs)
          in
          if dropped <> [] then incr drops;
          let redo_start =
            List.fold_left
              (fun r -> function Wal.S_ckpt_end { redo_start; _ } -> redo_start | _ -> r)
              0 recs
          in
          let loser (e : Wal.entry) =
            e.Wal.order >= horizon && not (List.mem e.Wal.order dropped)
          in
          let entries = List.map snd ops in
          let field = Printf.sprintf "byte %d: %s" stop in
          checkb (field "horizon") true (a.Recovery.horizon = horizon);
          checkb (field "dropped") true (a.Recovery.dropped = dropped);
          checkb (field "losers") true
            (a.Recovery.losers
            = List.sort_uniq compare
                (List.map (fun (e : Wal.entry) -> e.Wal.order) (List.filter loser entries)));
          checkb (field "loser_ops") true
            (a.Recovery.loser_ops = List.rev (List.filter loser entries));
          checkb (field "replayed") true
            (a.Recovery.replayed
            = List.length (List.filter (fun (e : Wal.entry) -> e.Wal.lsn >= redo_start) entries));
          checkb (field "next_sub") true
            (a.Recovery.next_sub
            = 1 + List.fold_left (fun m (e : Wal.entry) -> max m e.Wal.order) (-1) entries);
          checkb (field "points") true
            (a.Recovery.points = List.map (fun (at, (e : Wal.entry)) -> (e.Wal.lsn, at)) ops))
    image;
  checkb "prefixes analyzed" true (!analyzed > 20);
  checkb "prefixes with drop markers" true (!drops > 0)

(* The engine grants orders in sequence and logs each one, so an image
   whose op orders span more ids than it has op records is refused
   before analysis sizes anything by that span. *)
let test_sparse_orders_refused () =
  let line body = Printf.sprintf "%s %Lx\n" body (Ref_models.Wal.fnv1a body) in
  let image a b =
    String.concat ""
      [
        line "B 0"; line "E 0 0 0 - 0 - -";
        line (Printf.sprintf "O 0 1 %d R %d 0" a a);
        line (Printf.sprintf "O 1 2 %d R %d 0" b b);
      ]
  in
  let refused img =
    match Recovery.analyze img with
    | _ -> false
    | exception Wal.Corrupt _ -> true
  in
  checkb "dense orders analyzed" false (refused (image 0 1));
  checkb "a gap refused" true (refused (image 0 2));
  checkb "min_int..max_int refused" true (refused (image min_int max_int))

let suite =
  [
    Alcotest.test_case "analysis fields, recomputed per prefix" `Quick
      test_analysis_fields;
    Alcotest.test_case "wal: stable image round-trips" `Quick
      test_stable_roundtrip;
    Alcotest.test_case "wal: corruption detected" `Quick
      test_corrupt_image_detected;
    Alcotest.test_case "stable arming is invisible" `Quick
      test_stable_invisible;
    Alcotest.test_case "mangled WAL refused" `Quick test_mangled_wal_refused;
    Alcotest.test_case "sparse op orders refused" `Quick test_sparse_orders_refused;
    Alcotest.test_case "sweep histogram round-robin" `Quick
      test_sweep_histogram_rr;
    Alcotest.test_case "sweep histogram balance-aware" `Quick
      test_sweep_histogram_bal;
    Alcotest.test_case "sweep histogram weighted" `Quick
      test_sweep_histogram_wt;
    Alcotest.test_case "sweep pbzip2 round-robin" `Slow test_sweep_pbzip2_rr;
    Alcotest.test_case "sweep pbzip2 balance-aware" `Slow
      test_sweep_pbzip2_bal;
    Alcotest.test_case "sweep pbzip2 weighted" `Slow test_sweep_pbzip2_wt;
    Alcotest.test_case "sweep seeded sample" `Quick test_sweep_sampled;
    Alcotest.test_case "sweep p-cpr comparison leg" `Quick
      test_sweep_pcpr_leg;
    Alcotest.test_case "sweep classifies a wedged run" `Quick
      test_wedged_run_classified;
  ]
