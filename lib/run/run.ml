(* One run's inputs: the scenario, the prepared program, the engine
   configs a scenario maps to, and the one engine dispatch. Every front
   end (CLI, daemon, paper drivers, both sweeps) derives its runs from
   here, so the policy below is written once. *)

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

let check_scale scale =
  if Float.is_finite scale && scale >= 0.0 then Ok scale
  else
    Error
      (Printf.sprintf "scale must be a finite number at least 0, got %g" scale)

let check_rate rate =
  let cap = float_of_int Vm.Costs.default.Vm.Costs.cycles_per_second in
  if Float.is_finite rate && rate >= 0.0 && rate < cap then Ok rate
  else Error (Printf.sprintf "rate must be finite, >= 0 and < %g, got %g" cap rate)

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

type prepared = {
  spec : Workloads.Workload.spec;
  program : Vm.Isa.program;
  blocks : Vm.Block.t;
}

let build_program s =
  let spec = Workloads.Suite.find s.workload in
  ( spec,
    spec.Workloads.Workload.build ~n_contexts:s.contexts ~grain:(grain s)
      ~scale:s.scale )

let prepare s =
  let spec, program = build_program s in
  { spec; program; blocks = Vm.Block.analyze program }

(* The pthreads baseline takes no injector (rate is ignored there); both
   fault-injecting engines derive the injector stream from the run seed.
   This is the one place that policy is written. *)
let pthreads_config s =
  { Exec.Baseline.default_config with n_contexts = s.contexts; seed = s.seed }

let injector s = Faults.Injector.config ~seed:s.seed s.rate

let cpr_config s =
  {
    Cpr.default_config with
    n_contexts = s.contexts;
    seed = s.seed;
    checkpoint_interval = s.interval;
    injector = injector s;
  }

let gprs_config s =
  {
    Gprs.Engine.default_config with
    n_contexts = s.contexts;
    seed = s.seed;
    ordering = ordering s;
    injector = injector s;
  }

type outcome = {
  digest : string;
  sim_cycles : int;
  sim_seconds : float;
  dnc : bool;
  races : int;
  stats : (string * float) list;  (* empty unless [want_stats] *)
}

(* No engine lints: callers admit first (the CLI before the run, the
   daemon once at cache fill, the drivers once per row). *)
let exec ?blocks s program =
  match s.engine with
  | "pthreads" -> Exec.Baseline.run ?blocks (pthreads_config s) program
  | "cpr" -> Cpr.run ?blocks (cpr_config s) program
  | "gprs" -> Gprs.Engine.run ?blocks (gprs_config s) program
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
