(* End-to-end integration: the central oracle of the reproduction.

   For every workload, the digest of a GPRS execution under injected
   global exceptions must equal the digest of an exception-free Pthreads
   execution — globally precise restart means the program behaves "as if
   an exception never occurred" (paper §1). The same holds for CPR at
   rates it survives. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let n_contexts = 4
let scale = 0.08

let build (spec : Workloads.Workload.spec) =
  spec.Workloads.Workload.build ~n_contexts ~grain:Workloads.Workload.Default ~scale

let reference spec =
  let r = Exec.Baseline.run { Exec.Baseline.default_config with n_contexts } (build spec) in
  (spec.Workloads.Workload.digest r, r.Exec.State.sim_cycles)

(* Expected exceptions per fault-free run length. Chunky fork/join
   workloads (whole-run sub-threads at default grain) only tolerate ~1-2
   strikes per run — the paper's own tipping analysis (e <= n/tr);
   fine-grained ones absorb several. *)
let gprs_k name =
  match name with
  | "blackscholes" | "swaptions" | "barnes-hut" -> 1.2
  | "canneal" -> 3.0
  | _ -> 6.0

let cpr_k _ = 2.0

let rate_for ?cap ~k ~base () =
  let base_s =
    Sim.Time.to_seconds
      ~cycles_per_second:Vm.Costs.default.Vm.Costs.cycles_per_second base
  in
  let r = k /. base_s in
  match cap with Some c -> Float.min c r | None -> r

let test_gprs_all_workloads_with_faults () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let name = spec.Workloads.Workload.name in
      let d_ref, base = reference spec in
      let r =
        Gprs.Engine.run
          {
            Gprs.Engine.default_config with
            n_contexts;
            injector = Faults.Injector.config (rate_for ~k:(gprs_k name) ~base ());
            max_cycles = Some (300 * base);
          }
          (build spec)
      in
      checkb (name ^ " completed") false r.Exec.State.dnc;
      checks (name ^ " digest") d_ref (spec.Workloads.Workload.digest r))
    Workloads.Suite.all

let test_cpr_all_workloads_with_faults () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let name = spec.Workloads.Workload.name in
      let d_ref, base = reference spec in
      let r =
        Cpr.run
          {
            Cpr.default_config with
            n_contexts;
            checkpoint_interval = 0.002;
            injector = Faults.Injector.config (rate_for ~cap:25.0 ~k:(cpr_k name) ~base ());
            max_cycles = Some (300 * base);
          }
          (build spec)
      in
      checkb (name ^ " completed") false r.Exec.State.dnc;
      checks (name ^ " digest") d_ref (spec.Workloads.Workload.digest r))
    Workloads.Suite.all

let test_gprs_poisson_and_seeds () =
  (* Exception timing must not matter: several seeds, Poisson arrivals. *)
  let spec = Workloads.Suite.find "pbzip2" in
  let d_ref, base = reference spec in
  List.iter
    (fun seed ->
      let r =
        Gprs.Engine.run
          {
            Gprs.Engine.default_config with
            n_contexts;
            seed;
            injector =
              Faults.Injector.config ~seed ~process:Faults.Injector.Poisson
                (rate_for ~k:4.0 ~base ());
            max_cycles = Some (300 * base);
          }
          (build spec)
      in
      checkb (Printf.sprintf "seed %d completed" seed) false r.Exec.State.dnc;
      checks
        (Printf.sprintf "seed %d digest" seed)
        d_ref
        (spec.Workloads.Workload.digest r))
    [ 2; 17; 4711 ]

let test_gprs_orderings_with_faults () =
  let spec = Workloads.Suite.find "dedup" in
  let d_ref, base = reference spec in
  List.iter
    (fun ordering ->
      let r =
        Gprs.Engine.run
          {
            Gprs.Engine.default_config with
            n_contexts;
            ordering;
            injector = Faults.Injector.config (rate_for ~k:4.0 ~base ());
            max_cycles = Some (300 * base);
          }
          (build spec)
      in
      checkb "completed" false r.Exec.State.dnc;
      checks "digest" d_ref (spec.Workloads.Workload.digest r))
    [ Gprs.Order.Round_robin; Gprs.Order.Balance_aware; Gprs.Order.Weighted ]

let test_balance_aware_beats_round_robin_on_pipelines () =
  (* The paper's §3.2 claim, on our Pbzip2. *)
  let spec = Workloads.Suite.find "pbzip2" in
  let t ordering =
    (Gprs.Engine.run
       { Gprs.Engine.default_config with n_contexts = 8; ordering }
       (spec.Workloads.Workload.build ~n_contexts:8
          ~grain:Workloads.Workload.Default ~scale:0.2))
      .Exec.State.sim_cycles
  in
  let rr = t Gprs.Order.Round_robin and ba = t Gprs.Order.Balance_aware in
  checkb (Printf.sprintf "ba faster than rr (%d vs %d)" ba rr) true (ba < rr)

let test_basic_recovery_workload () =
  let spec = Workloads.Suite.find "histogram" in
  let d_ref, base = reference spec in
  let r =
    Gprs.Engine.run
      {
        Gprs.Engine.default_config with
        n_contexts;
        recovery = Gprs.Engine.Basic;
        injector = Faults.Injector.config (rate_for ~k:5.0 ~base ());
        max_cycles = Some (300 * base);
      }
      (build spec)
  in
  checkb "completed" false r.Exec.State.dnc;
  checks "digest" d_ref (spec.Workloads.Workload.digest r)

(* The event ring observes without perturbing: every workload under GPRS,
   fault-free and under faults, gives the same digest, cycles and stats
   with the ring recording as with it off. *)
let test_event_ring_equivalence () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let name = spec.Workloads.Workload.name in
      let _, base = reference spec in
      List.iter
        (fun faulty ->
          let cfg =
            {
              Gprs.Engine.default_config with
              n_contexts;
              injector =
                (if faulty then
                   Faults.Injector.config (rate_for ~k:(gprs_k name) ~base ())
                 else Faults.Injector.default_config);
              max_cycles = Some (300 * base);
            }
          in
          let run ring = Gprs.Engine.run ~events:ring cfg (build spec) in
          let off = run (Gprs.Event_ring.create ()) in
          let ring = Gprs.Event_ring.create () in
          Gprs.Event_ring.enable ring ~capacity:64;
          let on = run ring in
          let leg = Printf.sprintf "%s (%s)" name (if faulty then "faults" else "fault-free") in
          checkb (leg ^ " recorded") true (Gprs.Event_ring.recorded ring > 0);
          checks (leg ^ " digest") (spec.Workloads.Workload.digest off)
            (spec.Workloads.Workload.digest on);
          Alcotest.(check int) (leg ^ " cycles") off.Exec.State.sim_cycles
            on.Exec.State.sim_cycles;
          Alcotest.(check (list (pair string (float 0.0))))
            (leg ^ " stats")
            (Sim.Stats.to_assoc off.Exec.State.run_stats)
            (Sim.Stats.to_assoc on.Exec.State.run_stats))
        [ false; true ])
    Workloads.Suite.all

let suite =
  [
    Alcotest.test_case "gprs: all workloads, faults, exact digests" `Slow
      test_gprs_all_workloads_with_faults;
    Alcotest.test_case "cpr: all workloads, faults, exact digests" `Slow
      test_cpr_all_workloads_with_faults;
    Alcotest.test_case "gprs: poisson arrivals, several seeds" `Slow
      test_gprs_poisson_and_seeds;
    Alcotest.test_case "gprs: all orderings with faults" `Slow
      test_gprs_orderings_with_faults;
    Alcotest.test_case "balance-aware beats round-robin" `Slow
      test_balance_aware_beats_round_robin_on_pipelines;
    Alcotest.test_case "basic recovery on a workload" `Slow
      test_basic_recovery_workload;
    Alcotest.test_case "event ring on = off, all workloads" `Slow
      test_event_ring_equivalence;
  ]
