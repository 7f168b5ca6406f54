(* A scenario request: one (workload, engine, ordering, fault schedule,
   seed, knobs) point, exactly the parameter space of `gprs_run run`.
   [exec] is the one engine dispatch both `gprs_run run` and the daemon
   go through, so a daemon result is the one-shot result by
   construction. *)

type t = {
  id : string;  (* request correlation id, echoed in every reply *)
  workload : string;
  engine : string;  (* "pthreads" | "cpr" | "gprs" *)
  ordering : string;  (* gprs only *)
  contexts : int;
  scale : float;
  grain : string;  (* "default" | "fine" *)
  seed : int;
  rate : float;  (* exceptions per simulated second; cpr/gprs only *)
  interval : float;  (* cpr checkpoint interval, seconds *)
  want_stats : bool;  (* include run stats in the done event *)
}

let engines = [ "pthreads"; "cpr"; "gprs" ]

let orderings =
  [
    ("round-robin", Gprs.Order.Round_robin);
    ("balance-aware", Gprs.Order.Balance_aware);
    ("weighted", Gprs.Order.Weighted);
    ("recorded", Gprs.Order.Recorded);
  ]

let grains =
  [ ("default", Workloads.Workload.Default); ("fine", Workloads.Workload.Fine) ]

let unknown what name = Printf.sprintf "unknown %s %S" what name

let lookup what table name =
  match List.assoc_opt name table with
  | Some v -> v
  | None -> invalid_arg (unknown what name)

let ordering s = lookup "ordering" orderings s.ordering
let grain s = lookup "grain" grains s.grain

let of_json j =
  let ( let* ) = Result.bind in
  let known what names v =
    if List.mem v names then Ok v else Error (unknown what v)
  in
  let* id = Json.str ~default:"" "id" j in
  let* workload = Json.str "workload" j in
  let* engine = Json.str ~default:"gprs" "engine" j in
  let* engine = known "engine" engines engine in
  let* ordering = Json.str ~default:"balance-aware" "ordering" j in
  let* ordering = known "ordering" (List.map fst orderings) ordering in
  let* contexts = Json.int ~default:24 "contexts" j in
  let* scale = Json.float ~default:1.0 "scale" j in
  let* grain = Json.str ~default:"default" "grain" j in
  let* grain = known "grain" (List.map fst grains) grain in
  let* seed = Json.int ~default:1 "seed" j in
  let* rate = Json.float ~default:0.0 "rate" j in
  let* interval = Json.float ~default:0.05 "interval" j in
  let* want_stats = Json.bool ~default:false "stats" j in
  Ok
    {
      id;
      workload;
      engine;
      ordering;
      contexts;
      scale;
      grain;
      seed;
      rate;
      interval;
      want_stats;
    }

let to_json s =
  Json.Obj
    [
      ("op", Json.Str "run");
      ("id", Json.Str s.id);
      ("workload", Json.Str s.workload);
      ("engine", Json.Str s.engine);
      ("ordering", Json.Str s.ordering);
      ("contexts", Json.Int s.contexts);
      ("scale", Json.Float s.scale);
      ("grain", Json.Str s.grain);
      ("seed", Json.Int s.seed);
      ("rate", Json.Float s.rate);
      ("interval", Json.Float s.interval);
      ("stats", Json.Bool s.want_stats);
    ]

(* Program-cache key: exactly the inputs of decode + superblock
   compilation + lint admission — workload identity and build knobs —
   and nothing of the run (seed, rate, ordering, engine), so one cached
   program serves every run against it. *)
let program_key s =
  Printf.sprintf "%s/n%d/s%.17g/%s" s.workload s.contexts s.scale s.grain

(* Coalescing key: the full run identity minus the correlation id. Two
   requests with equal keys are the same deterministic computation, so
   the admission queue runs one and fans the result out. *)
let coalesce_key s =
  Printf.sprintf "%s/%s/%s/n%d/s%.17g/%s/seed%d/r%.17g/i%.17g/st%d"
    s.workload s.engine s.ordering s.contexts s.scale s.grain s.seed s.rate
    s.interval
    (Bool.to_int s.want_stats)

type outcome = {
  digest : string;
  sim_cycles : int;
  sim_seconds : float;
  dnc : bool;
  races : int;
  stats : (string * float) list;  (* empty unless [want_stats] *)
}

let outcome_to_json o =
  Json.Obj
    [
      ("digest", Json.Str o.digest);
      ("sim_cycles", Json.Int o.sim_cycles);
      ("sim_seconds", Json.Float o.sim_seconds);
      ("dnc", Json.Bool o.dnc);
      ("races", Json.Int o.races);
      ("stats", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.stats));
    ]

let build_program s =
  let spec = Workloads.Suite.find s.workload in
  ( spec,
    spec.Workloads.Workload.build ~n_contexts:s.contexts ~grain:(grain s)
      ~scale:s.scale )

(* The engine dispatch: the pthreads baseline takes no injector (rate is
   ignored there), cpr takes the checkpoint interval, gprs the ordering
   scheme; both fault-injecting engines derive the injector stream from
   the scenario seed. GPRS's own lint hook stays off — callers lint
   first (the CLI before the run, the daemon once at cache fill). *)
let exec ?blocks s program =
  match s.engine with
  | "pthreads" ->
    Exec.Baseline.run ?blocks
      { Exec.Baseline.default_config with n_contexts = s.contexts;
        seed = s.seed }
      program
  | "cpr" ->
    Cpr.run ?blocks
      {
        Cpr.default_config with
        n_contexts = s.contexts;
        seed = s.seed;
        checkpoint_interval = s.interval;
        injector = Faults.Injector.config ~seed:s.seed s.rate;
      }
      program
  | "gprs" ->
    Gprs.Engine.run ~lint:`Off ?blocks
      {
        Gprs.Engine.default_config with
        n_contexts = s.contexts;
        seed = s.seed;
        ordering = ordering s;
        injector = Faults.Injector.config ~seed:s.seed s.rate;
      }
      program
  | other -> invalid_arg (unknown "engine" other)

let run ~spec ~program ?blocks s =
  let result = exec ?blocks s program in
  {
    digest = spec.Workloads.Workload.digest result;
    sim_cycles = result.Exec.State.sim_cycles;
    sim_seconds = result.Exec.State.sim_seconds;
    dnc = result.Exec.State.dnc;
    races = List.length result.Exec.State.races;
    stats =
      (if s.want_stats then Sim.Stats.to_assoc result.Exec.State.run_stats
       else []);
  }
