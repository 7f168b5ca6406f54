(* service-zipf: a `gprs_run serve` child process driven through
   Server.Client over one Unix socket by one sender thread.

   What each request runs comes from the service's existing callers: the
   engine and fault mix of the CI service-smoke job (`gprs_run client
   --mix`: every program under pthreads, cpr and gprs, fault-free and at
   60 faults/s, 4 contexts, the client's 0.05 s CPR interval), the size
   of bench/main.ml's service leg (scale 0.03, a distinct seed per
   request). That leg's open loop runs at 100 rps; here it runs at 50,
   because at 100 rps slow periods of the 2-vCPU host filled the daemon's
   64-deep admission queue and it shed up to 133 requests of a run,
   which would fail the run. Which program a request
   names is synthetic, since no caller sends a popularity mix: Zipf(s = 1)
   over 20 program keys (10 programs x 2 grains) against an 8-entry
   program cache, so the working set exceeds the cache and a share of
   requests pays build + analyze + lint in the daemon (README.md gives
   the measured shares). *)

open Common

let contexts = 4
let scale = 0.03
let fault_rate = 60.0
let interval = 0.05
let rps = 50.0
let cache_entries = 8

type key = { workload : string; grain : string; spec : Workloads.Workload.spec }

type reference = { digest : string; program : Vm.Isa.program; blocks : Vm.Block.t }

type reply = {
  ok : bool;
  failure : string option;
  cached : bool;
  digest : string;
  cycles : int;
  dnc : bool;
}

let keys =
  List.concat_map
    (fun (spec : Workloads.Workload.spec) ->
      List.map
        (fun grain -> { workload = spec.Workloads.Workload.name; grain; spec })
        [ "default"; "fine" ])
    Workloads.Suite.all
  |> Array.of_list

(* The request trace is fixed by its length, so every seed sends the
   same work in the same order: each (key, engine, rate) class gets its
   expected share of [n] requests, rounded by largest remainder, under
   Zipf(s = 1) over the keys and the `client --mix` classes (pthreads,
   cpr and gprs a third each, cpr and gprs half fault-free and half at
   [fault_rate]; pthreads ignores the rate), in one fixed shuffled order.
   Open-loop queueing and cache misses depend on that order, and varying
   it moved request latency by far more than any change worth detecting.
   The seed gives each request its own simulation seed. *)
let make_requests ~seed n =
  let nk = Array.length keys in
  let h = List.fold_left (fun a k -> a +. (1.0 /. float_of_int (k + 1))) 0.0 (List.init nk Fun.id) in
  let classes =
    List.concat_map
      (fun k ->
        let pk = 1.0 /. float_of_int (k + 1) /. h in
        [
          (k, "pthreads", 0.0, pk /. 3.0);
          (k, "cpr", 0.0, pk /. 6.0);
          (k, "cpr", fault_rate, pk /. 6.0);
          (k, "gprs", 0.0, pk /. 6.0);
          (k, "gprs", fault_rate, pk /. 6.0);
        ])
      (List.init nk Fun.id)
    |> List.mapi (fun i (k, e, r, p) ->
           let x = p *. float_of_int n in
           let base = int_of_float x in
           (i, (k, e, r), base, x -. float_of_int base))
  in
  let short = n - List.fold_left (fun a (_, _, c, _) -> a + c) 0 classes in
  let by_remainder = List.sort (fun (i, _, _, a) (j, _, _, b) -> compare (b, i) (a, j)) classes in
  let counts =
    List.mapi (fun rank (i, c, base, _) -> (i, c, base + if rank < short then 1 else 0)) by_remainder
    |> List.sort compare
  in
  let reqs =
    Array.of_list (List.concat_map (fun (_, c, count) -> List.init count (fun _ -> c)) counts)
  in
  Sim.Prng.shuffle (Sim.Prng.create 20140609) reqs;
  Array.mapi
    (fun i (k, engine, rate) ->
      ( k,
        {
          Server.Scenario.id = Printf.sprintf "s%d" i;
          workload = keys.(k).workload;
          engine;
          ordering = "balance-aware";
          contexts;
          scale;
          grain = keys.(k).grain;
          seed = (seed * 100_003) + i;
          rate;
          interval;
          want_stats = false;
        } ))
    reqs

let decode_reply (refs : reference array) (k, (s : Server.Scenario.t)) j =
  let str f = Result.value ~default:"" (Server.Json.str ~default:"" f j) in
  let cached = Result.value ~default:false (Server.Json.bool ~default:false "cached" j) in
  match str "event" with
  | "done" ->
    let digest = str "digest" in
    let dnc = Result.value ~default:false (Server.Json.bool ~default:false "dnc" j) in
    let cycles = Result.value ~default:(-1) (Server.Json.int ~default:(-1) "sim_cycles" j) in
    let failure =
      if dnc || String.equal digest refs.(k).digest then None
      else
        Some
          (Printf.sprintf "%s/%s %s@%g seed %d: digest %s, want %s" s.workload s.grain s.engine
             s.rate s.seed digest refs.(k).digest)
    in
    { ok = true; failure; cached; digest; cycles; dnc }
  | _ ->
    {
      ok = false;
      failure = Some (Printf.sprintf "%s: %s" (str "id") (Server.Json.to_string j));
      cached;
      digest = "";
      cycles = -1;
      dnc = false;
    }

(* ------------------------------------------------------------------ *)
(* The daemon child                                                    *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string; client : Server.Client.t }

let live : int list ref = ref []

let reap pid =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let start_daemon ~gprs_run ~sock ~env =
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [|
      gprs_run; "serve"; "--sock"; sock; "-j"; "1"; "--par-j"; "1"; "--cache";
      string_of_int cache_entries; "--idle-ms"; "0";
    |]
  in
  let pid = Unix.create_process_env gprs_run args env null null Unix.stderr in
  Unix.close null;
  live := pid :: !live;
  (* poll for the socket rather than back off: the start time is measured *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  let client = Server.Client.connect ~retries:6 (Server.Daemon.Unix_sock sock) in
  Server.Client.ping client;
  { pid; sock; client }

let stop_daemon d =
  (try Server.Client.shutdown d.client with _ -> ());
  reap d.pid;
  Server.Client.close d.client;
  try Sys.remove d.sock with Sys_error _ -> ()

let stat_int path j =
  let rec go j = function
    | [] -> ( match j with Server.Json.Int n -> n | _ -> 0)
    | f :: rest -> (
      match Server.Json.member f j with Some v -> go v rest | None -> 0)
  in
  go j path

(* ------------------------------------------------------------------ *)
(* Load phases                                                         *)
(* ------------------------------------------------------------------ *)

let ns_of_s s = Int64.of_float (s *. 1e9)

(* Open loop: arrivals every 1/rps regardless of completions. The main
   thread sends on schedule; a collector thread takes replies in order.
   Latency runs from each request's scheduled send time, so a stall is
   charged to every request it delays; lag is how late the sender was. *)
let open_loop d ~rps ~idle reqs =
  let n = Array.length reqs in
  let t0 = Int64.add (Spans.now ()) (ns_of_s 0.01) in
  let due i = Int64.add t0 (ns_of_s (float_of_int i /. rps)) in
  let lat = Array.make n 0.0 and lag = Array.make n 0.0 in
  let replies = Array.make n Server.Json.Null in
  let collector () =
    try
      for i = 0 to n - 1 do
        let j, _ = Server.Client.await d.client ~id:(snd reqs.(i)).Server.Scenario.id in
        lat.(i) <- Spans.secs (due i) (Spans.now ());
        replies.(i) <- j
      done
    with Server.Client.Closed -> ()
  in
  let th = Thread.create collector () in
  Array.iteri
    (fun i (_, scn) ->
      let left () = Spans.secs (Spans.now ()) (due i) in
      if left () > 0.002 then idle ();
      let l = left () in
      if l > 0.0 then Unix.sleepf l;
      lag.(i) <- Float.max 0.0 (Spans.secs (due i) (Spans.now ()));
      Server.Client.send d.client (Server.Scenario.to_json scn))
    reqs;
  Thread.join th;
  (lat, lag, replies)

(* Closed loop: one request outstanding; [idle] runs between requests. *)
let closed_loop ?(idle = ignore) d reqs =
  Array.mapi
    (fun i (_, scn) ->
      let r =
        Spans.timed ~req:i "Server.Client.run_sync" (fun () ->
            Server.Client.run_sync d.client scn)
      in
      idle ();
      r)
    reqs

(* The sequence again under fresh request ids. *)
let relabel tag seq =
  Array.mapi
    (fun i (k, scn) -> (k, { scn with Server.Scenario.id = Printf.sprintf "%s%d" tag i }))
    seq

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

type replayed = { exec_s : float; build_s : float; codec_s : float }

(* [f] three times under span [name]: the last result, and the best time,
   to compare with the daemon's best round trip. *)
let best_of_3 name f =
  let rec go k best last =
    if k = 0 then (Option.get last, best)
    else
      let v, dt = Spans.timed name f in
      go (k - 1) (Float.min best dt) (Some v)
  in
  go 3 infinity None

(* Traced run only: the same requests again, in process, through the
   calls the daemon makes — build, analyze and lint on the daemon's
   misses, Scenario.run, the JSON codec — and each result must be
   bit-identical to the daemon's reply. *)
let replay ~(refs : reference array) (k, (scn : Server.Scenario.t)) (r : reply) =
  let build_s =
    if r.cached then 0.0
    else begin
      let (_, program), b =
        best_of_3 "Workloads.build" (fun () -> Server.Scenario.build_program scn)
      in
      let _, a = best_of_3 "Vm.Block.analyze" (fun () -> Vm.Block.analyze program) in
      let _, l = best_of_3 "Lint.Check.program" (fun () -> Lint.Check.program program) in
      b +. a +. l
    end
  in
  let o, exec_s =
    best_of_3 "Server.Scenario.run" (fun () ->
        Server.Scenario.run ~spec:keys.(k).spec ~program:refs.(k).program
          ~blocks:refs.(k).blocks scn)
  in
  let (), codec_s =
    best_of_3 "Server.Json" (fun () ->
        let rt j = ignore (Server.Json.of_string (Server.Json.to_string j)) in
        rt (Server.Scenario.to_json scn);
        rt (Server.Scenario.outcome_to_json o))
  in
  let same =
    (not r.ok)
    || String.equal o.Server.Scenario.digest r.digest
       && o.Server.Scenario.sim_cycles = r.cycles
       && o.Server.Scenario.dnc = r.dnc
  in
  let failure =
    if same then None
    else
      Some
        (Printf.sprintf "%s: daemon digest %s cycles %d, in-process %s cycles %d"
           scn.Server.Scenario.id r.digest r.cycles o.Server.Scenario.digest
           o.Server.Scenario.sim_cycles)
  in
  ({ exec_s; build_s; codec_s }, failure)

let run ~smoke ~seed ~seconds ~trace ~gprs_run ~out_dir =
  let reps = if smoke then 1 else setup_reps in
  (* The open loop sends the sequence once, at [rps]; the closed loop
     repeats it for the rest of the run. *)
  let n = if smoke then 20 else 133 in
  let open_s = float_of_int n /. rps in
  (* References, in process: the Pthreads digest of every key. *)
  let refs =
    Array.map
      (fun key ->
        let spec, program =
          Server.Scenario.build_program
            {
              Server.Scenario.id = "";
              workload = key.workload;
              engine = "pthreads";
              ordering = "balance-aware";
              contexts;
              scale;
              grain = key.grain;
              seed;
              rate = 0.0;
              interval = 0.0;
              want_stats = false;
            }
        in
        let blocks = Vm.Block.analyze program in
        Hashtbl.replace superblocks (key.workload ^ "/" ^ key.grain) (Vm.Block.n_compiled blocks);
        let r =
          Exec.Baseline.run ~blocks
            { Exec.Baseline.default_config with n_contexts = contexts; seed }
            program
        in
        { digest = spec.Workloads.Workload.digest r; program; blocks })
      keys
  in
  let seq = make_requests ~seed n in
  (* Warming up with the sequence's own tail leaves the program cache as
     every repetition of the sequence leaves it, so each repetition
     meets the same hits and misses. *)
  let n_warm = Stdlib.min n 50 in
  let warm = relabel "w" (Array.sub seq (n - n_warm) n_warm) in
  let socks = ref 0 in
  let sock () =
    incr socks;
    Filename.concat out_dir (Printf.sprintf "svc-%d-%d.sock" (Unix.getpid ()) !socks)
  in
  let env =
    Array.append (Unix.environment ())
      (if trace then
         [|
           "OCAML_RUNTIME_EVENTS_START=1";
           "OCAML_RUNTIME_EVENTS_DIR=" ^ out_dir;
         |]
       else [||])
  in
  let t = tally () in
  (* Set-up: start a daemon and warm it up. The repetitions after the
     first run between closed-loop passes, on daemons of their own. *)
  let start_and_warm () =
    let d =
      Spans.call "Server.Daemon.start" (fun () -> start_daemon ~gprs_run ~sock:(sock ()) ~env)
    in
    ignore (closed_loop d warm);
    d
  in
  let d, again, finish_setup = spread_setup ~reps ~trace ~dispose:stop_daemon start_and_warm in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let child_gc =
    if not trace then None
    else begin
      let g = Gc_pauses.create (Some (Filename.concat (Sys.getcwd ()) out_dir, d.pid)) in
      Gc_pauses.set_counting g true;
      Some g
    end
  in
  let poll_child () = Option.iter Gc_pauses.poll child_gc in
  let stats0 = Server.Client.stats d.client in
  (* Every reply is checked against the Pthreads digest of its program. *)
  let check ((_, (scn : Server.Scenario.t)) as req) j =
    let r = decode_reply refs req j in
    (* an error or a shed request is never the known defect *)
    record
      ~known:
        (r.ok
        && known_defect ~workload:scn.Server.Scenario.workload
             ~gprs_faulty:(scn.Server.Scenario.engine = "gprs" && scn.Server.Scenario.rate > 0.0))
      t r.failure;
    r
  in
  let open_best = best () and closed_best = best () in
  let request_key i =
    let _, (s : Server.Scenario.t) = seq.(i) in
    Printf.sprintf "%03d %s/%s %s@%g" i s.workload s.grain s.engine s.rate
  in
  let open_seq = relabel "o" seq in
  let lat, lag, open_replies =
    traced_if trace (fun () ->
        Spans.call "bench.pass" (fun () ->
            Spans.call "Server.Client.open_loop" (fun () ->
                open_loop d ~rps ~idle:poll_child open_seq)))
  in
  let first =
    Array.mapi
      (fun i reply ->
        observe open_best (request_key i) ~latency:lat.(i) ~total:lat.(i);
        check seq.(i) reply)
      open_replies
  in
  poll_child ();
  let closed_passes =
    passes ~trace ~seconds:(seconds -. open_s) ~between:again (fun p ->
        Array.iteri
          (fun i (j, dt) ->
            ignore (check seq.(i) j);
            observe closed_best (request_key i) ~latency:dt ~total:dt)
          (closed_loop ~idle:poll_child d (relabel (Printf.sprintf "c%d_" p) seq)))
  in
  (* the daemon's GC is counted over the open and closed loops only *)
  Option.iter (fun g -> Gc_pauses.set_counting g false) child_gc;
  let setup_s = finish_setup () in
  poll_child ();
  let stats1 = Server.Client.stats d.client in
  let delta path = stat_int path stats1 - stat_int path stats0 in
  let fp =
    Array.fold_left
      (fun h r -> fnv h (Printf.sprintf "%s|%d|%b\n" r.digest r.cycles r.dnc))
      fnv_init first
  in
  let best_lat i = Hashtbl.find closed_best.latency (request_key i) in
  let split cached =
    List.filter_map
      (fun i -> if first.(i).cached = cached then Some (1000.0 *. best_lat i) else None)
      (List.init n Fun.id)
  in
  (* Traced run: replay the sequence in process. *)
  let exec_ms = ref [] and build_ms = ref [] and codec_us = ref [] and wait_ms = ref [] in
  if trace then
    traced_if true (fun () ->
        Spans.call "bench.pass" (fun () ->
            Array.iteri
              (fun i r ->
                let p, failure = replay ~refs seq.(i) r in
                Option.iter (fail t) failure;
                exec_ms := (1000.0 *. p.exec_s) :: !exec_ms;
                if not r.cached then build_ms := (1000.0 *. p.build_s) :: !build_ms;
                codec_us := (1e6 *. p.codec_s) :: !codec_us;
                wait_ms :=
                  (1000.0 *. (best_lat i -. p.exec_s -. p.build_s -. p.codec_s)) :: !wait_ms)
              first));
  let peak_rss = peak_rss_mb (string_of_int d.pid) in
  let requests = Array.length open_seq + (closed_passes * n) in
  let gc_layer =
    match child_gc with
    | None -> []
    | Some g ->
      Gc_pauses.close g;
      Gc_pauses.metrics g ~ops:requests
  in
  (* The shares README.md reports: of the sequence's requests, those
     that miss the cache, and those of each engine and fault rate. *)
  let share n_of = Printf.sprintf "%.1f%%" (100.0 *. float_of_int n_of /. float_of_int n) in
  let count p = Array.fold_left (fun a (_, s) -> if p s then a + 1 else a) 0 seq in
  let n_miss = Array.fold_left (fun a r -> if r.cached then a else a + 1) 0 first in
  let open_lat = values open_best.latency in
  let ms p xs = 1000.0 *. percentile p xs in
  let hits = delta [ "cache"; "hits" ] and misses = delta [ "cache"; "misses" ] in
  let gen_lag_p99 = ms 99.0 (Array.to_list lag) in
  {
    setup_s;
    tally = t;
    ops_per_s = best_rate closed_best;
    latency_s = values closed_best.latency;
    peak_rss_mb = peak_rss;
    named =
      [
        ("req_ms_p50", "ms", ms 50.0 open_lat);
        ("req_ms_p90", "ms", ms 90.0 open_lat);
        ("svc_req_per_s", "1/s", best_rate closed_best);
        ("shed", "count", float_of_int (delta [ "shed" ]));
      ];
    layer =
      [
        ("server.hit_ms_p50", median (split true));
        ("server.hit_ms_p90", percentile 90.0 (split true));
        ("server.miss_ms_p50", median (split false));
        ("server.miss_ms_p90", percentile 90.0 (split false));
        ( "server.cache.hit_ratio",
          if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses) else 0.0 );
        ("server.shed", float_of_int (delta [ "shed" ]));
        ("server.coalesced", float_of_int (delta [ "coalesced" ]));
        ("server.exec_ms_p50", median !exec_ms);
        ("server.build_ms_p50", median !build_ms);
        ("server.codec_us_p50", median !codec_us);
        ("server.wait_ms_p50", median !wait_ms);
        ("bench.gen_lag_ms_p99", gen_lag_p99);
        ("trace.overhead_frac", trace_overhead closed_best);
      ]
      @ gc_layer;
    fingerprint = hex fp;
    op_best_ms = best_ms closed_best;
    sizes =
      [
        ( "daemon",
          Printf.sprintf "gprs_run serve -j 1 --par-j 1 --cache %d --idle-ms 0" cache_entries );
        ( "keys",
          Printf.sprintf "%d (10 programs x 2 grains), %d contexts, scale %g"
            (Array.length keys) contexts scale );
        ("sequence", Printf.sprintf "%d requests, Zipf(s=1) over the keys" n);
        ("cache_misses", share n_miss);
        ( "engines",
          Printf.sprintf "pthreads %s, cpr %s + %s faulty, gprs %s + %s faulty (%g/s)"
            (share (count (fun s -> s.Server.Scenario.engine = "pthreads")))
            (share (count (fun s -> s.Server.Scenario.engine = "cpr" && s.rate = 0.0)))
            (share (count (fun s -> s.Server.Scenario.engine = "cpr" && s.rate > 0.0)))
            (share (count (fun s -> s.Server.Scenario.engine = "gprs" && s.rate = 0.0)))
            (share (count (fun s -> s.Server.Scenario.engine = "gprs" && s.rate > 0.0)))
            fault_rate );
        ("setup", Printf.sprintf "%d daemon starts, %d warm-up requests each" reps n_warm);
        ("open_loop", Printf.sprintf "the sequence once at %.0f rps" rps);
        ("closed_loop", Printf.sprintf "%d x the sequence, one outstanding" closed_passes);
      ];
    notes =
      (if gen_lag_p99 > 5.0 then
         [ Printf.sprintf "INVALID: generator lag p99 %.2f ms > 5 ms" gen_lag_p99 ]
       else []);
  }
