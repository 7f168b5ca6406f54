(* The daemon must be a transparent execution surface: a daemon-served
   run — cold cache or warm, coalesced or not — is bit-identical (digest,
   cycles, DNC, every non-par stat) to the equivalent one-shot CLI run,
   for every workload x engine x fault leg. Plus the service plumbing
   itself: the JSON codec round-trips, the LRU cache evicts and
   deduplicates in-flight builds, the shared pool survives concurrent
   submitters and quiesce/respawn cycles, bounded admission sheds at a
   deterministic point, identical queued scenarios coalesce into one
   execution, and both idle watchdogs release their domains. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

module J = Server.Json

let jget = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let jstr k j = jget (J.str k j)
let jint k j = jget (J.int k j)
let jbool k j = jget (J.bool k j)

(* --- json codec --------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("op", J.Str "run");
        ("n", J.Int (-42));
        ("x", J.Float 0.25);
        ("flag", J.Bool true);
        ("nil", J.Null);
        ("s", J.Str "a\"b\\c\nd\tz");
        ("l", J.List [ J.Int 1; J.Str "two"; J.Obj []; J.List [] ]);
      ]
  in
  (match J.of_string (J.to_string v) with
  | Ok v' -> checkb "value round-trips" true (v = v')
  | Error e -> Alcotest.fail e);
  (* the rendering is a single protocol line even for escaped input *)
  checkb "no raw newline" true
    (not (String.contains (J.to_string v) '\n'));
  (* ints survive exactly; floats with enough digits *)
  (match J.of_string "{\"seed\": 123456789012345, \"f\": 0.1}" with
  | Ok j ->
    checki "int field" 123456789012345 (jint "seed" j);
    checkb "float field" true (jget (J.float "f" j) = 0.1)
  | Error e -> Alcotest.fail e);
  (* accessor defaults paper over missing fields, not present ones *)
  let j = J.Obj [ ("a", J.Int 3) ] in
  checki "default miss" 7 (jget (J.int ~default:7 "b" j));
  checki "default hit" 3 (jget (J.int ~default:7 "a" j));
  (* a present field with the wrong type errors; the default never
     silently stands in for it ({"seed":"42"} must not run as seed 7) *)
  let wrong = J.Obj [ ("seed", J.Str "42"); ("name", J.Int 1) ] in
  checkb "wrong-typed int errors despite default" true
    (Result.is_error (J.int ~default:7 "seed" wrong));
  checkb "wrong-typed str errors despite default" true
    (Result.is_error (J.str ~default:"x" "name" wrong));
  checkb "wrong-typed bool errors despite default" true
    (Result.is_error (J.bool ~default:true "seed" wrong));
  checkb "wrong-typed float errors despite default" true
    (Result.is_error (J.float ~default:1.0 "seed" wrong));
  checkb "trailing junk rejected" true
    (Result.is_error (J.of_string "{} x"));
  checkb "bare garbage rejected" true (Result.is_error (J.of_string "nope"))

(* --- program cache ------------------------------------------------------ *)

let dummy_entry =
  lazy
    (let spec = Workloads.Suite.find "histogram" in
     let program =
       spec.Workloads.Workload.build ~n_contexts:2
         ~grain:Workloads.Workload.Default ~scale:0.01
     in
     {
       Server.Cache.e_spec = spec;
       e_program = program;
       e_blocks = Vm.Block.analyze program;
       e_lint_errors = 0;
     })

let test_cache_lru () =
  let t = Server.Cache.create ~capacity:2 in
  let builds = ref 0 in
  let build () =
    incr builds;
    Lazy.force dummy_entry
  in
  let touch key = ignore (Server.Cache.find t ~key ~build) in
  touch "a";
  (* miss *)
  touch "b";
  (* miss *)
  let _, hit_a = Server.Cache.find t ~key:"a" ~build in
  checkb "a still resident" true hit_a;
  touch "c";
  (* miss: evicts b (LRU; a was just touched) *)
  touch "b";
  (* miss again: b was evicted; now evicts a *)
  let _, hit_c = Server.Cache.find t ~key:"c" ~build in
  checkb "c survived b's reinsertion" true hit_c;
  let s = Server.Cache.stats t in
  checki "length capped" 2 s.Server.Cache.length;
  checki "hits" 2 s.Server.Cache.hits;
  checki "misses" 4 s.Server.Cache.misses;
  checki "evictions" 2 s.Server.Cache.evictions;
  checki "builds = misses" 4 !builds;
  Server.Cache.clear t;
  checki "clear empties" 0 (Server.Cache.stats t).Server.Cache.length

let test_cache_inflight_dedup () =
  let t = Server.Cache.create ~capacity:4 in
  let builds = Atomic.make 0 in
  let build () =
    Atomic.incr builds;
    Thread.delay 0.05;
    Lazy.force dummy_entry
  in
  let hits = Atomic.make 0 in
  let finders =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            let _, hit = Server.Cache.find t ~key:"k" ~build in
            if hit then Atomic.incr hits)
          ())
  in
  List.iter Thread.join finders;
  checki "one build for a cold burst" 1 (Atomic.get builds);
  checki "the other finders parked and hit" 3 (Atomic.get hits)

(* --- shared pool -------------------------------------------------------- *)

let test_shared_pool () =
  let p = Analysis.Pool.shared_create ~jobs:2 in
  checki "lazy spawn" 0 (Analysis.Pool.shared_workers p);
  let count = Atomic.make 0 in
  let submitters =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 50 do
              Analysis.Pool.shared_submit p (fun () -> Atomic.incr count)
            done)
          ())
  in
  List.iter Thread.join submitters;
  Analysis.Pool.shared_wait p;
  checki "every concurrent submission ran" 200 (Atomic.get count);
  (* a raising task must not take a worker down with it *)
  Analysis.Pool.shared_submit p (fun () -> failwith "boom");
  Analysis.Pool.shared_submit p (fun () -> Atomic.incr count);
  Analysis.Pool.shared_wait p;
  checki "pool survives a raising task" 201 (Atomic.get count);
  Analysis.Pool.shared_quiesce p;
  checki "quiesce joins the domains" 0 (Analysis.Pool.shared_workers p);
  (* the pool is reusable after quiesce: submit respawns *)
  Analysis.Pool.shared_submit p (fun () -> Atomic.incr count);
  Analysis.Pool.shared_wait p;
  checki "respawn after quiesce" 202 (Atomic.get count);
  Analysis.Pool.shared_quiesce p

(* Submitters racing the housekeeper's quiesce: no task may strand in
   the queue (hanging shared_wait) and no quiesce may deadlock on its
   join, whichever way the two interleave. *)
let test_shared_pool_quiesce_race () =
  let p = Analysis.Pool.shared_create ~jobs:2 in
  let count = Atomic.make 0 in
  let total = 400 in
  let stop_quiescer = Atomic.make false in
  let quiescer =
    Thread.create
      (fun () ->
        while not (Atomic.get stop_quiescer) do
          Analysis.Pool.shared_quiesce p;
          Thread.yield ()
        done)
      ()
  in
  let submitters =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to total / 4 do
              Analysis.Pool.shared_submit p (fun () -> Atomic.incr count);
              Thread.yield ()
            done)
          ())
  in
  List.iter Thread.join submitters;
  Analysis.Pool.shared_wait p;
  checki "no task stranded by a racing quiesce" total (Atomic.get count);
  Atomic.set stop_quiescer true;
  Thread.join quiescer;
  Analysis.Pool.shared_quiesce p;
  checki "final quiesce joins everything" 0 (Analysis.Pool.shared_workers p)

(* --- daemon helpers ----------------------------------------------------- *)

let with_daemon ?(cfg = Server.Daemon.default_config) f =
  let d = Server.Daemon.start cfg in
  Fun.protect ~finally:(fun () -> Server.Daemon.stop d) @@ fun () ->
  let c = Server.Client.connect (Server.Daemon.bound_addr d) in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () -> f d c

let scenario ?(engine = "gprs") ?(rate = 0.0) ?(seed = 7) ~id ~workload () =
  {
    Server.Scenario.id;
    workload;
    engine;
    ordering = "balance-aware";
    contexts = 4;
    scale = 0.02;
    grain = "default";
    seed;
    rate;
    interval = 0.05;
    want_stats = true;
  }

let stats_of_reply j =
  match J.member "stats" j with
  | Some (J.Obj fields) ->
    List.map
      (fun (k, v) ->
        ( k,
          match v with
          | J.Float f -> f
          | J.Int i -> float_of_int i
          | _ -> Alcotest.fail ("non-numeric stat " ^ k) ))
      fields
  | _ -> []

(* --- daemon == one-shot equivalence sweep ------------------------------- *)

let test_equivalence_sweep () =
  with_daemon @@ fun _d c ->
  List.iter
    (fun workload ->
      (* first request per workload is a genuine cold decode *)
      Server.Client.cache_clear c;
      let first = ref true in
      List.iter
        (fun engine ->
          List.iter
            (fun rate ->
              let scn = scenario ~engine ~rate ~id:"x" ~workload () in
              let local =
                let spec, program = Server.Scenario.build_program scn in
                Server.Scenario.run ~spec ~program scn
              in
              List.iter
                (fun tag ->
                  let label what =
                    Printf.sprintf "%s %s/%s rate=%.0f %s" what workload
                      engine rate tag
                  in
                  let j =
                    Server.Client.run_sync c
                      { scn with Server.Scenario.id = tag }
                  in
                  checks (label "event") "done" (jstr "event" j);
                  (* the very first dispatch after cache_clear misses;
                     every later one must be served from cache *)
                  checkb (label "cached") (not !first) (jbool "cached" j);
                  first := false;
                  checks (label "digest") local.Server.Scenario.digest
                    (jstr "digest" j);
                  checki (label "sim_cycles")
                    local.Server.Scenario.sim_cycles (jint "sim_cycles" j);
                  checkb (label "sim_seconds") true
                    (jget (J.float "sim_seconds" j)
                    = local.Server.Scenario.sim_seconds);
                  checkb (label "dnc") local.Server.Scenario.dnc
                    (jbool "dnc" j);
                  checki (label "races") local.Server.Scenario.races
                    (jint "races" j);
                  Alcotest.(check (list (pair string (float 0.0))))
                    (label "stats")
                    local.Server.Scenario.stats (stats_of_reply j))
                [ "cold"; "warm" ])
            [ 0.0; 60.0 ])
        [ "pthreads"; "cpr"; "gprs" ])
    Workloads.Suite.names

(* --- bounded admission: deterministic shed ------------------------------ *)

(* One connection, one pool worker: a sleep occupies the worker, then
   three distinct runs arrive back-to-back. The reader thread updates the
   admission counters synchronously per line, so with depth 3 the shed
   point is exact — sleep + two runs admitted, the third refused with
   429 — independent of execution timing. Two rounds pin determinism. *)
let test_deterministic_shed () =
  let cfg =
    {
      Server.Daemon.default_config with
      jobs = 1;
      depth = 3;
      idle_quiesce_ms = 0;
    }
  in
  with_daemon ~cfg @@ fun d c ->
  for round = 1 to 2 do
    let rid i = Printf.sprintf "r%d-%d" round i in
    Server.Client.send c
      (J.Obj
         [
           ("op", J.Str "sleep");
           ("id", J.Str (rid 0));
           ("ms", J.Int 400);
         ]);
    for i = 1 to 3 do
      Server.Client.send c
        (Server.Scenario.to_json
           (scenario ~id:(rid i) ~seed:((100 * round) + i)
              ~workload:"histogram" ()))
    done;
    let shed, _ = Server.Client.await c ~id:(rid 3) in
    checks "third run refused" "error" (jstr "event" shed);
    checki "with 429" 429 (jint "code" shed);
    for i = 0 to 2 do
      let j, _ = Server.Client.await c ~id:(rid i) in
      checks (Printf.sprintf "admitted %s completes" (rid i)) "done"
        (jstr "event" j)
    done
  done;
  let s = Server.Daemon.stats_json d in
  checki "exactly one shed per round" 2 (jint "shed" s)

(* --- coalescing --------------------------------------------------------- *)

let test_coalescing () =
  let cfg =
    { Server.Daemon.default_config with jobs = 1; idle_quiesce_ms = 0 }
  in
  with_daemon ~cfg @@ fun d c ->
  (* hold the only worker so both identical scenarios are queued *)
  Server.Client.send c
    (J.Obj [ ("op", J.Str "sleep"); ("id", J.Str "s"); ("ms", J.Int 300) ]);
  let scn = scenario ~id:"a" ~workload:"histogram" () in
  Server.Client.send c (Server.Scenario.to_json scn);
  Server.Client.send c
    (Server.Scenario.to_json { scn with Server.Scenario.id = "b" });
  let ja, _ = Server.Client.await c ~id:"a" in
  let jb, _ = Server.Client.await c ~id:"b" in
  checks "a done" "done" (jstr "event" ja);
  checks "b done" "done" (jstr "event" jb);
  checks "one execution, same digest" (jstr "digest" ja) (jstr "digest" jb);
  ignore (Server.Client.await c ~id:"s");
  let s = Server.Daemon.stats_json d in
  checki "b folded into a's group" 1 (jint "coalesced" s);
  checki "two work units executed" 2 (jint "served" s);
  checki "nothing shed" 0 (jint "shed" s)

(* --- protocol errors ---------------------------------------------------- *)

let test_protocol_errors () =
  with_daemon @@ fun _d c ->
  let unknown_op = Server.Client.op c (J.Obj [ ("op", J.Str "frobnicate") ]) in
  checki "unknown op is 400" 400 (jint "code" unknown_op);
  let bad_engine =
    Server.Client.run_sync c
      (scenario ~engine:"quantum" ~id:"e1" ~workload:"histogram" ())
  in
  checks "unknown engine refused" "error" (jstr "event" bad_engine);
  checki "with 400" 400 (jint "code" bad_engine);
  let bad_workload =
    Server.Client.run_sync c (scenario ~id:"e2" ~workload:"nope" ())
  in
  checks "unknown workload refused" "error" (jstr "event" bad_workload);
  checki "with 400" 400 (jint "code" bad_workload);
  (* An unknown ordering or grain is refused, not run under the
     default. *)
  let bad_ordering =
    Server.Client.run_sync c
      { (scenario ~id:"e3" ~workload:"histogram" ()) with
        Server.Scenario.ordering = "roundrobin" }
  in
  checks "unknown ordering refused" "error" (jstr "event" bad_ordering);
  checki "with 400" 400 (jint "code" bad_ordering);
  let bad_grain =
    Server.Client.run_sync c
      { (scenario ~id:"e4" ~workload:"histogram" ()) with
        Server.Scenario.grain = "fien" }
  in
  checks "unknown grain refused" "error" (jstr "event" bad_grain);
  checki "with 400" 400 (jint "code" bad_grain)

(* --- idle watchdogs ----------------------------------------------------- *)

let poll_until ~msg pred =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then Alcotest.fail msg
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let test_daemon_idle_quiesce () =
  let cfg =
    { Server.Daemon.default_config with jobs = 1; idle_quiesce_ms = 50 }
  in
  with_daemon ~cfg @@ fun d c ->
  let j = Server.Client.run_sync c (scenario ~id:"w" ~workload:"histogram" ()) in
  checks "run done" "done" (jstr "event" j);
  poll_until ~msg:"housekeeper never joined the idle pool" (fun () ->
      jint "pool_workers" (Server.Daemon.stats_json d) = 0);
  (* the next request respawns the pool transparently *)
  let j2 =
    Server.Client.run_sync c (scenario ~id:"w2" ~seed:8 ~workload:"histogram" ())
  in
  checks "post-quiesce run done" "done" (jstr "event" j2)

let suite =
  [
    Alcotest.test_case "json codec round-trips" `Quick test_json_roundtrip;
    Alcotest.test_case "cache: LRU eviction and stats" `Quick test_cache_lru;
    Alcotest.test_case "cache: cold burst builds once" `Quick
      test_cache_inflight_dedup;
    Alcotest.test_case "shared pool: concurrent submit, quiesce, respawn"
      `Quick test_shared_pool;
    Alcotest.test_case "shared pool: submit racing quiesce strands nothing"
      `Quick test_shared_pool_quiesce_race;
    Alcotest.test_case "daemon == one-shot for every workload x engine x leg"
      `Quick test_equivalence_sweep;
    Alcotest.test_case "admission: deterministic overflow shed" `Quick
      test_deterministic_shed;
    Alcotest.test_case "admission: identical scenarios coalesce" `Quick
      test_coalescing;
    Alcotest.test_case "protocol errors carry 4xx codes" `Quick
      test_protocol_errors;
    Alcotest.test_case "daemon housekeeper joins the idle pool" `Quick
      test_daemon_idle_quiesce;
  ]
