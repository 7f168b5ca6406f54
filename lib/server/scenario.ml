(* The wire codec over [Run]: a run request is a [Run.t] scenario. *)

include Run

let known what names v =
  if List.mem v names then Ok v
  else Error (Printf.sprintf "unknown %s %S" what v)

let of_json j =
  let ( let* ) = Result.bind in
  let* id = Json.str ~default:"" "id" j in
  let* workload = Json.str "workload" j in
  let* engine = Json.str ~default:"gprs" "engine" j in
  let* engine = known "engine" engines engine in
  let* ordering = Json.str ~default:"balance-aware" "ordering" j in
  let* ordering = known "ordering" (List.map fst orderings) ordering in
  let* contexts = Json.int ~default:24 "contexts" j in
  let* contexts =
    if contexts >= 1 then Ok contexts
    else Error (Printf.sprintf "contexts must be at least 1, got %d" contexts)
  in
  let* scale = Json.float ~default:1.0 "scale" j in
  let* scale = check_scale scale in
  let* grain = Json.str ~default:"default" "grain" j in
  let* grain = known "grain" (List.map fst grains) grain in
  let* seed = Json.int ~default:1 "seed" j in
  let* rate = Json.float ~default:0.0 "rate" j in
  let* rate = check_rate rate in
  let* interval = Json.float ~default:0.05 "interval" j in
  let* interval =
    if Float.is_finite interval && interval > 0.0 then Ok interval
    else Error (Printf.sprintf "interval must be finite and > 0, got %g" interval)
  in
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
