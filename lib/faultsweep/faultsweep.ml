(* The JSON scenario-matrix fault driver (see faultsweep.mli for the
   schema). Structure mirrors the crash sweep: a cached fault-free pilot
   per run identity supplies the reference digest and a simulated-cycle
   budget, the armed run executes under that budget so a wedged schedule
   classifies as hung-timeout deterministically (no host clocks), and
   every outcome lands in the shared Recovery.Signature vocabulary.

   Service-seam rows (pool_submit / cache_insert / admission_enqueue)
   run through a private in-process daemon started with fault injection
   allowed; arming goes over the wire through the client's "fault" verb
   so the sweep exercises the protocol path, while fire counts are read
   from the (process-global) registry directly. *)

module Json = Server.Json
module Scenario = Server.Scenario
module Points = Faults.Points

let arm_rejected = "arm-rejected"

type arm_spec = {
  a_point : Points.point;
  a_action : Points.action;
  a_start : int;
  a_end : int;  (* max_int = unbounded *)
  a_delay : int;
  a_pinned : bool;  (* explicit start in the matrix: triggers leave it *)
}

type row = {
  r_name : string;
  r_arms : arm_spec list;
  r_scen : Scenario.t;
  r_service : bool;
}

(* --- matrix parsing ------------------------------------------------------ *)

let ( let* ) = Result.bind

let obj_fields = function Json.Obj kvs -> Some kvs | _ -> None

(* Scenario fields resolve scenario-first, then matrix defaults (Json
   accessors take the first binding of a key). *)
let merge sc defaults =
  match (obj_fields sc, obj_fields defaults) with
  | Some a, Some b -> Json.Obj (a @ b)
  | Some _, None -> sc
  | _ -> sc

let arm_of_json j =
  let* pname = Json.str "point" j in
  let* aname = Json.str "action" j in
  let* a_start = Json.int ~default:1 "start" j in
  let* a_end = Json.int ~default:0 "end" j in
  let* a_delay = Json.int ~default:50 "delay_us" j in
  match (Points.of_name pname, Points.action_of_name aname) with
  | None, _ -> Error (Printf.sprintf "unknown fault point %S" pname)
  | _, None -> Error (Printf.sprintf "unknown fault action %S" aname)
  | Some a_point, Some a_action ->
    Ok
      {
        a_point;
        a_action;
        a_start;
        a_end = (if a_end <= 0 then max_int else a_end);
        a_delay;
        a_pinned = Json.member "start" j <> None;
      }

let parse_scenario defaults idx j =
  let* name =
    Json.str ~default:(Printf.sprintf "scenario-%d" idx) "name" j
  in
  let m = merge j defaults in
  let* scen = Scenario.of_json m in
  let* () =
    match Workloads.Suite.find scen.Scenario.workload with
    | _ -> Ok ()
    | exception _ ->
      Error (Printf.sprintf "%s: unknown workload %S" name scen.workload)
  in
  let* via = Json.str ~default:"oneshot" "via" m in
  let* r_service =
    match via with
    | "service" -> Ok true
    | "oneshot" -> Ok false
    | v -> Error (Printf.sprintf "%s: via must be oneshot|service, got %S" name v)
  in
  let* arms =
    match Json.member "arms" m with
    | Some (Json.List js) ->
      List.fold_left
        (fun acc aj ->
          let* acc = acc in
          let* a = arm_of_json aj in
          Ok (a :: acc))
        (Ok []) js
      |> Result.map List.rev
    | Some _ -> Error (Printf.sprintf "%s: arms must be a list" name)
    | None -> (
      match Json.member "point" m with
      | None -> Ok []  (* unarmed control row *)
      | Some _ ->
        let* a = arm_of_json m in
        Ok [ a ])
  in
  let* triggers =
    match Json.member "triggers" m with
    | None -> Ok []
    | Some (Json.List js) ->
      List.fold_left
        (fun acc tj ->
          let* acc = acc in
          match tj with
          | Json.Int t when t >= 1 -> Ok (t :: acc)
          | _ -> Error (Printf.sprintf "%s: triggers must be ints >= 1" name))
        (Ok []) js
      |> Result.map List.rev
    | Some _ -> Error (Printf.sprintf "%s: triggers must be a list" name)
  in
  let base = { r_name = name; r_arms = arms; r_scen = scen; r_service } in
  match triggers with
  | [] -> Ok [ base ]
  | ts ->
    Ok
      (List.map
         (fun t ->
           {
             base with
             r_name = Printf.sprintf "%s@%d" name t;
             r_arms =
               List.map
                 (fun a ->
                   if a.a_pinned then a
                   else { a with a_start = t; a_end = t })
                 arms;
           })
         ts)

let parse_matrix j =
  let defaults =
    match Json.member "defaults" j with Some d -> d | None -> Json.Obj []
  in
  match Json.member "scenarios" j with
  | Some (Json.List js) ->
    let* rows =
      List.fold_left
        (fun acc (i, sj) ->
          let* acc = acc in
          let* rs = parse_scenario defaults i sj in
          Ok (List.rev_append rs acc))
        (Ok [])
        (List.mapi (fun i sj -> (i, sj)) js)
    in
    Ok (List.rev rows)
  | Some _ -> Error "scenarios must be a list"
  | None -> Error "matrix has no scenarios"

(* --- execution ----------------------------------------------------------- *)

let gprs_cfg s = { (Run.gprs_config s) with Gprs.Engine.wal_stable = true }

(* Recovery-side points must survive the crash to exercise their seams;
   everything else is disarmed before recovery so an unbounded-window
   crash arm cannot re-crash the resumed run forever. *)
let disarm_run_points () =
  Points.disarm_if (fun p _ ->
      match p with
      | Points.Recovery_analysis | Points.Recovery_redo | Points.Recovery_undo
      | Points.Cold_restart ->
        false
      | _ -> true)

let total_fires () =
  List.fold_left
    (fun acc st -> acc + st.Points.s_fires)
    0 (Points.status_all ())

(* A finished run under armed points: not triggered if no point fired,
   else judged against the pilot's digest [want]. *)
let classify_finished ~want ~dnc got =
  if total_fires () = 0 then
    (Recovery.Signature.not_triggered, "armed fault never fired")
  else Recovery.classify_run ~want ~dnc got

(* Classify a one-shot gprs run under armed points. [want]/[budget] come
   from the fault-free pilot; [dg] is the workload digest. *)
let classify_gprs ~want ~budget cfg (p : Run.prepared) =
  let dg = p.Run.spec.Workloads.Workload.digest in
  Recovery.classify_crash ~want ~digest:dg
    ~finished:(fun r -> classify_finished ~want ~dnc:r.Exec.State.dnc (fun () -> dg r))
    (fun () ->
      match
        Gprs.Engine.run ~blocks:p.Run.blocks
          { cfg with Gprs.Engine.max_cycles = budget }
          p.Run.program
      with
      | r -> r
      | exception (Gprs.Engine.Crashed _ as crash) ->
        disarm_run_points ();
        raise crash)

let classify_other ~want { Run.spec; program; blocks } scen =
  match Run.run ~spec ~program ~blocks scen with
  | exception Points.Fault_error msg -> (Recovery.Signature.refused_error, msg)
  | (o : Scenario.outcome) ->
    classify_finished ~want ~dnc:o.dnc (fun () -> o.digest)

(* --- the private fault-enabled daemon ------------------------------------ *)

type service = { d : Server.Daemon.t; c : Server.Client.t }

let service_of = function
  | Some s -> s
  | None ->
    let d =
      Server.Daemon.start
        {
          Server.Daemon.default_config with
          addr = Server.Daemon.Tcp 0;
          jobs = 2;
          allow_fault = true;
        }
    in
    let c = Server.Client.connect ~retries:10 (Server.Daemon.bound_addr d) in
    { d; c }

let fault_verb c fields =
  let reply = Server.Client.fault c fields in
  match Json.str ~default:"" "event" reply with
  | Ok "fault" -> Ok ()
  | _ -> (
    match Json.str ~default:"fault verb failed" "error" reply with
    | Ok msg -> Error msg
    | Error msg -> Error msg)

let arm_via_client c (a : arm_spec) =
  fault_verb c
    ([
       ("verb", Json.Str "arm");
       ("point", Json.Str (Points.to_name a.a_point));
       ("fault", Json.Str (Points.action_name a.a_action));
       ("start", Json.Int a.a_start);
       ("delay_us", Json.Int a.a_delay);
     ]
    @ if a.a_end = max_int then [] else [ ("end", Json.Int a.a_end) ])

let classify_service ~want svc scen =
  let module S = Recovery.Signature in
  let reply = Server.Client.run_sync svc.c scen in
  match Json.str ~default:"" "event" reply with
  | Ok "done" -> (
    match (Json.str "digest" reply, Json.bool ~default:false "dnc" reply) with
    | Ok got, Ok dnc -> classify_finished ~want ~dnc (fun () -> got)
    | Error msg, _ | _, Error msg -> (S.refused_error, "bad done reply: " ^ msg))
  | Ok "error" ->
    let code = Result.value ~default:0 (Json.int ~default:0 "code" reply) in
    let msg =
      Result.value ~default:"" (Json.str ~default:"" "error" reply)
    in
    if code = 429 then (S.shed, msg) else (S.refused_error, msg)
  | _ -> (S.refused_error, "unexpected reply: " ^ Json.to_string reply)

(* --- run_matrix ---------------------------------------------------------- *)

let points_json () =
  Json.List
    (List.map
       (fun (st : Points.status) ->
         Json.Obj
           [
             ("point", Json.Str (Points.to_name st.s_point));
             ( "action",
               match st.s_action with
               | Some a -> Json.Str (Points.action_name a)
               | None -> Json.Null );
             ("hits", Json.Int st.s_hits);
             ("fires", Json.Int st.s_fires);
           ])
       (Points.status_all ()))

let arms_json arms =
  Json.List
    (List.map
       (fun a ->
         Json.Obj
           [
             ("point", Json.Str (Points.to_name a.a_point));
             ("action", Json.Str (Points.action_name a.a_action));
             ("start", Json.Int a.a_start);
             ("end", if a.a_end = max_int then Json.Null else Json.Int a.a_end);
             ("delay_us", Json.Int a.a_delay);
           ])
       arms)

let run_matrix ?(only = []) ?(seed = 0) ?(iters = 1) ?(log = fun _ -> ()) j =
  let* rows = parse_matrix j in
  let base_name n =
    match String.index_opt n '@' with
    | Some i -> String.sub n 0 i
    | None -> n
  in
  let rows =
    if only = [] then rows
    else
      List.filter
        (fun r -> List.mem r.r_name only || List.mem (base_name r.r_name) only)
        rows
  in
  if rows = [] then Error "no scenarios selected"
  else begin
    let iters = Stdlib.max 1 iters in
    (* Prepared programs keyed on build knobs; pilots on full run
       identity (seed included). Both caches are per-sweep. *)
    let programs = Hashtbl.create 8 in
    let pilots = Hashtbl.create 8 in
    let prepared_of s =
      let key = Run.program_key s in
      match Hashtbl.find_opt programs key with
      | Some p -> p
      | None ->
        let p = Run.prepare s in
        Hashtbl.add programs key p;
        p
    in
    let pilot_of (p : Run.prepared) s =
      let key = Run.coalesce_key s in
      match Hashtbl.find_opt pilots key with
      | Some v -> v
      | None ->
        let v =
          if s.Run.engine = "gprs" then begin
            let _image, r = Recovery.pilot ~cfg:(gprs_cfg s) p in
            (p.Run.spec.Workloads.Workload.digest r, r.Exec.State.sim_cycles)
          end
          else
            let { Run.spec; program; blocks } = p in
            let o = Run.run ~spec ~program ~blocks s in
            (o.Run.digest, o.Run.sim_cycles)
        in
        Hashtbl.add pilots key v;
        v
    in
    let svc = ref None in
    let results = ref [] in
    let counts = Hashtbl.create 8 in
    let bad = ref false in
    let run_one iter row =
      let eff_seed = row.r_scen.Scenario.seed + seed + iter in
      let scen =
        { row.r_scen with Scenario.seed = eff_seed; id = "fs-" ^ row.r_name }
      in
      Points.reset_all ();
      let p = prepared_of scen in
      let want, pilot_cycles = pilot_of p scen in
      (* Arm. One-shot rows arm the registry directly; service rows go
         through the daemon's fault verb (same registry — the daemon is
         in-process — but the protocol path is part of what the sweep
         covers). *)
      let arm a =
        if row.r_service then begin
          let s = service_of !svc in
          svc := Some s;
          arm_via_client s.c a
        end
        else
          Points.arm ~start_hit:a.a_start ~end_hit:a.a_end ~delay_us:a.a_delay
            a.a_point a.a_action
      in
      let arm_err =
        List.fold_left
          (fun acc a ->
            match acc with
            | Some _ -> acc
            | None -> ( match arm a with Ok () -> None | Error m -> Some m))
          None row.r_arms
      in
      let signature, detail =
        match arm_err with
        | Some m -> (arm_rejected, m)
        | None ->
          if row.r_service then begin
            let s = service_of !svc in
            svc := Some s;
            classify_service ~want s scen
          end
          else if scen.engine = "gprs" then
            classify_gprs ~want
              ~budget:(Some ((4 * pilot_cycles) + 10000))
              (gprs_cfg scen) p
          else classify_other ~want p scen
      in
      let fires = total_fires () in
      let pts = points_json () in
      Points.reset_all ();
      (* the daemon shares the registry, so clear its view too *)
      (match !svc with
      | Some s when row.r_service ->
        ignore (fault_verb s.c [ ("verb", Json.Str "reset_all") ])
      | _ -> ());
      if
        signature = Recovery.Signature.wrong_digest
        || signature = Recovery.Signature.analysis_mismatch
        || signature = arm_rejected
      then bad := true;
      Hashtbl.replace counts signature
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts signature));
      log (Printf.sprintf "%-32s %-24s %s" row.r_name signature detail);
      results :=
        Json.Obj
          [
            ("name", Json.Str row.r_name);
            ("iter", Json.Int iter);
            ("workload", Json.Str scen.workload);
            ("engine", Json.Str scen.engine);
            ("via", Json.Str (if row.r_service then "service" else "oneshot"));
            ("seed", Json.Int eff_seed);
            ("arms", arms_json row.r_arms);
            ("signature", Json.Str signature);
            ("detail", Json.Str detail);
            ("fires", Json.Int fires);
            ("points", pts);
          ]
        :: !results
    in
    let fin =
      Fun.protect ~finally:(fun () ->
          match !svc with
          | Some s ->
            Server.Client.close s.c;
            Server.Daemon.stop s.d
          | None -> ())
    in
    fin (fun () ->
        List.iter
          (fun row ->
            for iter = 0 to iters - 1 do
              run_one iter row
            done)
          rows);
    let summary =
      Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) counts []
      |> List.sort compare
    in
    let out =
      Json.Obj
        [
          ("seed", Json.Int seed);
          ("iters", Json.Int iters);
          ("rows", Json.Int (List.length !results));
          ("results", Json.List (List.rev !results));
          ("summary", Json.Obj summary);
          ("ok", Json.Bool (not !bad));
        ]
    in
    Ok (out, not !bad)
  end
