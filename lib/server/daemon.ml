(* The persistent simulation daemon. One process holds, across requests:
   the program cache (decode + superblock compilation + lint admission
   paid once per key) and a shared long-lived Analysis.Pool the
   admission queue multiplexes runs onto.

   Threading model: the listener and each connection reader are
   systhreads (they spend their lives blocked in accept/read and take no
   part in stop-the-world collections); simulation runs execute on the
   shared pool's domains. A housekeeping systhread quiesces the pool
   after an idle period, so a warm-but-idle daemon holds no parked
   domains and pays no STW tax when the next burst arrives. *)

type addr = Tcp of int | Unix_sock of string

type config = {
  addr : addr;
  jobs : int;  (* pool worker domains for concurrent requests *)
  depth : int;  (* admission bound: queued-or-running groups *)
  cache_capacity : int;
  idle_quiesce_ms : int;  (* 0 disables the idle watchdog *)
  allow_fault : bool;  (* expose the fault-injection verb *)
}

let default_config =
  {
    addr = Tcp 0;
    jobs = 1;
    depth = 64;
    cache_capacity = 32;
    idle_quiesce_ms = 200;
    allow_fault = false;
  }

(* --- connections -------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  inc : in_channel;
  outc : out_channel;
  wlock : Mutex.t;  (* pool workers and the reader interleave replies *)
  mutable alive : bool;
}

let send conn j =
  Mutex.lock conn.wlock;
  (try
     if conn.alive then begin
       output_string conn.outc (Json.to_string j);
       output_char conn.outc '\n';
       flush conn.outc
     end
   with _ -> conn.alive <- false);
  Mutex.unlock conn.wlock

let close_conn conn =
  Mutex.lock conn.wlock;
  if conn.alive then begin
    conn.alive <- false;
    try Unix.close conn.fd with _ -> ()
  end;
  Mutex.unlock conn.wlock

(* --- daemon state ------------------------------------------------------- *)

type waiter = { w_conn : conn; w_id : string }

type group = {
  g_scn : Scenario.t;
  mutable g_waiters : waiter list;  (* newest first *)
}

type t = {
  cfg : config;
  cache : Cache.t;
  pool : Analysis.Pool.shared;
  listener : Unix.file_descr;
  bound : addr;  (* with the real port for Tcp 0 *)
  mutex : Mutex.t;
  stopped : Condition.t;
  groups : (string, group) Hashtbl.t;  (* coalesce_key -> in-flight group *)
  mutable conns : conn list;
  mutable inflight : int;  (* accepted-not-done work units *)
  mutable stopping : bool;
  mutable last_done : int64;  (* monotonic ns, see [housekeeper] *)
  (* counters, under [mutex] *)
  mutable n_requests : int;
  mutable n_served : int;  (* groups executed *)
  mutable n_coalesced : int;  (* requests folded into an existing group *)
  mutable n_shed : int;
}

let listen_on = function
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> Tcp p
      | _ -> Tcp port
    in
    (fd, bound)
  | Unix_sock path ->
    (* Only ever remove a *stale socket* at [path]: a regular file is
       someone else's data, and a socket that still accepts connections
       is a live daemon — unlinking either would be destructive. *)
    (match Unix.stat path with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception _ -> false
      in
      (try Unix.close probe with _ -> ());
      if live then
        failwith
          (Printf.sprintf "%s: a daemon is already listening here" path)
      else ( try Unix.unlink path with _ -> ())
    | _ ->
      failwith
        (Printf.sprintf "%s exists and is not a socket; refusing to replace it"
           path));
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, Unix_sock path)

let bound_addr t = t.bound

let port t = match t.bound with Tcp p -> p | Unix_sock _ -> 0

(* --- request handling --------------------------------------------------- *)

let err_reply ~id code msg =
  Json.Obj
    [
      ("id", Json.Str id);
      ("event", Json.Str "error");
      ("code", Json.Int code);
      ("error", Json.Str msg);
    ]

let build_entry scn () =
  let spec, program = Scenario.build_program scn in
  let blocks = Vm.Block.analyze program in
  (* Admission validation: the static lint pass runs once per cached
     program, so its (deterministic) verdict is part of the entry, and
     warm requests skip it entirely. Error-severity findings refuse
     execution, the CLI's --strict-lint stance. *)
  let diags = Lint.Check.program program in
  {
    Cache.e_spec = spec;
    e_program = program;
    e_blocks = blocks;
    e_lint_errors = List.length (Lint.Check.errors diags);
  }

let group_finished t key reply =
  Mutex.lock t.mutex;
  let waiters =
    match Hashtbl.find_opt t.groups key with
    | Some g ->
      Hashtbl.remove t.groups key;
      g.g_waiters
    | None -> []
  in
  t.inflight <- t.inflight - 1;
  t.n_served <- t.n_served + 1;
  t.last_done <- Monotonic_clock.now ();
  Mutex.unlock t.mutex;
  List.iter (fun w -> send w.w_conn (reply ~id:w.w_id)) (List.rev waiters)

let exec_group t key (g : group) () =
  let scn = g.g_scn in
  match
    Cache.find t.cache ~key:(Scenario.program_key scn)
      ~build:(build_entry scn)
  with
  | exception Invalid_argument msg ->
    group_finished t key (fun ~id -> err_reply ~id 400 msg)
  | exception ex ->
    group_finished t key (fun ~id -> err_reply ~id 500 (Printexc.to_string ex))
  | entry, cached ->
    (* progress event to everyone attached so far; late coalescers get
       only the final event *)
    Mutex.lock t.mutex;
    let attached =
      match Hashtbl.find_opt t.groups key with
      | Some g -> List.rev g.g_waiters
      | None -> []
    in
    Mutex.unlock t.mutex;
    List.iter
      (fun w ->
        send w.w_conn
          (Json.Obj
             [
               ("id", Json.Str w.w_id);
               ("event", Json.Str "start");
               ("cached", Json.Bool cached);
             ]))
      attached;
    if entry.Cache.e_lint_errors > 0 then
      group_finished t key (fun ~id ->
          err_reply ~id 422
            (Printf.sprintf
               "lint found %d error-severity finding(s); refusing to run"
               entry.Cache.e_lint_errors))
    else begin
      match
        Scenario.run ~spec:entry.Cache.e_spec ~program:entry.Cache.e_program
          ~blocks:entry.Cache.e_blocks scn
      with
      | outcome ->
        group_finished t key (fun ~id ->
            match Scenario.outcome_to_json outcome with
            | Json.Obj fields ->
              Json.Obj
                (("id", Json.Str id) :: ("event", Json.Str "done")
                :: ("cached", Json.Bool cached) :: fields)
            | j -> j)
      | exception ex ->
        group_finished t key (fun ~id ->
            err_reply ~id 500 (Printexc.to_string ex))
    end

let handle_run t conn j =
  match Scenario.of_json j with
  | Error msg ->
    let id = Result.value ~default:"" (Json.str ~default:"" "id" j) in
    send conn (err_reply ~id 400 msg)
  | Ok scn -> (
    let key = Scenario.coalesce_key scn in
    let w = { w_conn = conn; w_id = scn.Scenario.id } in
    Mutex.lock t.mutex;
    t.n_requests <- t.n_requests + 1;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      send conn (err_reply ~id:scn.Scenario.id 503 "daemon shutting down")
    end
    else
      match Hashtbl.find_opt t.groups key with
      | Some g ->
        (* identical scenario already queued or running: one execution,
           fanned out to every requester. The 'queued' ack goes out
           while [t.mutex] is still held: [group_finished] collects
           waiters under the same mutex, so its 'done' cannot overtake
           this ack on the wire (events for one id must stay ordered). *)
        g.g_waiters <- w :: g.g_waiters;
        t.n_coalesced <- t.n_coalesced + 1;
        send conn
          (Json.Obj
             [
               ("id", Json.Str scn.Scenario.id);
               ("event", Json.Str "queued");
               ("coalesced", Json.Bool true);
             ]);
        Mutex.unlock t.mutex
      | None ->
        (* Fault seam: an injected error at admission sheds exactly like
           a full queue (same 429 contract the client already handles). *)
        let inj_shed =
          match Faults.Points.sample Faults.Points.Admission_enqueue with
          | exception Faults.Points.Fault_error _ -> true
          | Some _ | None -> false
        in
        if inj_shed || t.inflight >= t.cfg.depth then begin
          (* bounded admission: shed rather than queue without limit *)
          t.n_shed <- t.n_shed + 1;
          Mutex.unlock t.mutex;
          send conn
            (err_reply ~id:scn.Scenario.id 429
               (if inj_shed then "admission shed (injected fault)"
                else "admission queue full"))
        end
        else begin
          let g = { g_scn = scn; g_waiters = [ w ] } in
          Hashtbl.replace t.groups key g;
          t.inflight <- t.inflight + 1;
          Mutex.unlock t.mutex;
          send conn
            (Json.Obj
               [
                 ("id", Json.Str scn.Scenario.id);
                 ("event", Json.Str "queued");
                 ("coalesced", Json.Bool false);
               ]);
          match Analysis.Pool.shared_submit t.pool (exec_group t key g) with
          | () -> ()
          | exception Faults.Points.Fault_error msg ->
            (* the group was registered above; retire it or the slot
               leaks and its waiters hang *)
            group_finished t key (fun ~id ->
                err_reply ~id 500 ("pool submit failed: " ^ msg))
        end)

let handle_sleep t conn j =
  let id = Result.value ~default:"" (Json.str ~default:"" "id" j) in
  let ms = Result.value ~default:100 (Json.int ~default:100 "ms" j) in
  Mutex.lock t.mutex;
  if t.inflight >= t.cfg.depth then begin
    t.n_shed <- t.n_shed + 1;
    Mutex.unlock t.mutex;
    send conn (err_reply ~id 429 "admission queue full")
  end
  else begin
    t.inflight <- t.inflight + 1;
    Mutex.unlock t.mutex;
    send conn
      (Json.Obj
         [ ("id", Json.Str id); ("event", Json.Str "queued");
           ("coalesced", Json.Bool false) ]);
    match
      Analysis.Pool.shared_submit t.pool (fun () ->
          Unix.sleepf (float_of_int ms /. 1000.);
          Mutex.lock t.mutex;
          t.inflight <- t.inflight - 1;
          t.n_served <- t.n_served + 1;
          t.last_done <- Monotonic_clock.now ();
          Mutex.unlock t.mutex;
          send conn
            (Json.Obj [ ("id", Json.Str id); ("event", Json.Str "done") ]))
    with
    | () -> ()
    | exception Faults.Points.Fault_error msg ->
      Mutex.lock t.mutex;
      t.inflight <- t.inflight - 1;
      t.last_done <- Monotonic_clock.now ();
      Mutex.unlock t.mutex;
      send conn (err_reply ~id 500 ("pool submit failed: " ^ msg))
  end

let stats_json t =
  Mutex.lock t.mutex;
  let inflight = t.inflight
  and requests = t.n_requests
  and served = t.n_served
  and coalesced = t.n_coalesced
  and shed = t.n_shed in
  Mutex.unlock t.mutex;
  let c = Cache.stats t.cache in
  Json.Obj
    [
      ("event", Json.Str "stats");
      ("requests", Json.Int requests);
      ("served", Json.Int served);
      ("coalesced", Json.Int coalesced);
      ("shed", Json.Int shed);
      ("inflight", Json.Int inflight);
      ( "cache",
        Json.Obj
          [
            ("length", Json.Int c.Cache.length);
            ("capacity", Json.Int c.Cache.capacity);
            ("hits", Json.Int c.Cache.hits);
            ("misses", Json.Int c.Cache.misses);
            ("evictions", Json.Int c.Cache.evictions);
          ] );
      ("fault_points", Json.Int (Faults.Points.armed_count ()));
      ("pool_workers", Json.Int (Analysis.Pool.shared_workers t.pool));
      ("pool_pending", Json.Int (Analysis.Pool.shared_pending t.pool));
      ("analyses", Json.Int (Vm.Block.analyses ()));
      ("jobs", Json.Int t.cfg.jobs);
      ("depth", Json.Int t.cfg.depth);
    ]

(* --- fault-injection verb ----------------------------------------------- *)

(* Arming/status for Faults.Points over the wire, so a client can drive
   fault scenarios against a live daemon. Gated behind
   [serve --allow-fault-injection]: arming a point perturbs every
   request in the process, which no multi-tenant daemon should allow by
   accident. *)

let fault_points_json () =
  Json.List
    (List.map
       (fun (st : Faults.Points.status) ->
         Json.Obj
           [
             ("point", Json.Str (Faults.Points.to_name st.Faults.Points.s_point));
             ( "action",
               match st.Faults.Points.s_action with
               | Some a -> Json.Str (Faults.Points.action_name a)
               | None -> Json.Null );
             ("start", Json.Int st.Faults.Points.s_start);
             ( "end",
               if st.Faults.Points.s_end = max_int then Json.Null
               else Json.Int st.Faults.Points.s_end );
             ("delay_us", Json.Int st.Faults.Points.s_delay_us);
             ("hits", Json.Int st.Faults.Points.s_hits);
             ("fires", Json.Int st.Faults.Points.s_fires);
           ])
       (Faults.Points.status_all ()))

let fault_reply ~id =
  Json.Obj
    [
      ("id", Json.Str id);
      ("event", Json.Str "fault");
      ("points", fault_points_json ());
    ]

let handle_fault t conn j =
  let id = Result.value ~default:"" (Json.str ~default:"" "id" j) in
  if not t.cfg.allow_fault then
    send conn
      (err_reply ~id 403
         "fault injection disabled (start the daemon with \
          --allow-fault-injection)")
  else
    let point () =
      match Json.str "point" j with
      | Error msg -> Error msg
      | Ok name -> (
        match Faults.Points.of_name name with
        | Some p -> Ok p
        | None -> Error (Printf.sprintf "unknown fault point %S" name))
    in
    match Result.value ~default:"" (Json.str ~default:"" "verb" j) with
    | "status" -> send conn (fault_reply ~id)
    | "reset_all" ->
      Faults.Points.reset_all ();
      send conn (fault_reply ~id)
    | "reset" | "disarm" -> (
      match point () with
      | Error msg -> send conn (err_reply ~id 400 msg)
      | Ok p ->
        Faults.Points.reset p;
        send conn (fault_reply ~id))
    | "arm" -> (
      match (point (), Json.str "fault" j) with
      | Error msg, _ | _, Error msg -> send conn (err_reply ~id 400 msg)
      | Ok p, Ok aname -> (
        match Faults.Points.action_of_name aname with
        | None ->
          send conn
            (err_reply ~id 400 (Printf.sprintf "unknown action %S" aname))
        | Some a -> (
          let get k d = Result.value ~default:d (Json.int ~default:d k j) in
          let start_hit = get "start" 1 in
          let end_hit =
            match Json.member "end" j with
            | Some (Json.Int e) -> e
            | _ -> max_int
          in
          let delay_us = get "delay_us" 50 in
          match Faults.Points.arm ~start_hit ~end_hit ~delay_us p a with
          | Ok () -> send conn (fault_reply ~id)
          | Error msg -> send conn (err_reply ~id 400 msg))))
    | v ->
      send conn
        (err_reply ~id 400
           (Printf.sprintf
              "unknown fault verb %S (arm|disarm|reset|reset_all|status)" v))

(* forward ref: [stop] is defined after the reader that may trigger it *)
let stop_ref : (t -> unit) ref = ref (fun _ -> ())

let handle_line t conn line =
  match Json.of_string line with
  | Error msg -> send conn (err_reply ~id:"" 400 ("bad json: " ^ msg))
  | Ok j -> (
    match Result.value ~default:"" (Json.str ~default:"" "op" j) with
    | "run" -> handle_run t conn j
    | "ping" -> send conn (Json.Obj [ ("event", Json.Str "pong") ])
    | "stats" -> send conn (stats_json t)
    | "cache_clear" ->
      Cache.clear t.cache;
      send conn (Json.Obj [ ("event", Json.Str "cache_cleared") ])
    | "sleep" -> handle_sleep t conn j
    | "fault" -> handle_fault t conn j
    | "shutdown" ->
      send conn (Json.Obj [ ("event", Json.Str "shutting_down") ]);
      ignore (Thread.create (fun () -> !stop_ref t) ())
    | op -> send conn (err_reply ~id:"" 400 (Printf.sprintf "unknown op %S" op))
    )

let reader t conn () =
  let rec loop () =
    match input_line conn.inc with
    | line ->
      if String.trim line <> "" then handle_line t conn line;
      loop ()
    | exception _ -> ()
  in
  loop ();
  close_conn conn;
  Mutex.lock t.mutex;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.mutex

let acceptor t () =
  let rec loop () =
    match Unix.accept t.listener with
    | fd, _ ->
      let conn =
        {
          fd;
          inc = Unix.in_channel_of_descr fd;
          outc = Unix.out_channel_of_descr fd;
          wlock = Mutex.create ();
          alive = true;
        }
      in
      Mutex.lock t.mutex;
      t.conns <- conn :: t.conns;
      Mutex.unlock t.mutex;
      ignore (Thread.create (reader t conn) ());
      loop ()
    | exception _ -> () (* listener closed: shutting down *)
  in
  loop ()

(* Idle housekeeping: once the daemon has been quiet for the configured
   window, drain-join the shared pool's domains. The next burst respawns
   them transparently. Idleness is measured on the monotonic clock, so a
   wall-clock step cannot postpone (or hasten) the quiesce. *)
let housekeeper t () =
  let period = float_of_int (Stdlib.max 20 t.cfg.idle_quiesce_ms) /. 4000. in
  let idle_ns = Int64.mul 1_000_000L (Int64.of_int t.cfg.idle_quiesce_ms) in
  let rec loop () =
    Thread.delay period;
    let stop_now =
      Mutex.lock t.mutex;
      let s = t.stopping in
      let idle =
        t.inflight = 0
        && Int64.sub (Monotonic_clock.now ()) t.last_done >= idle_ns
      in
      Mutex.unlock t.mutex;
      if (not s) && idle && Analysis.Pool.shared_workers t.pool > 0 then
        Analysis.Pool.shared_quiesce t.pool;
      s
    in
    if not stop_now then loop ()
  in
  loop ()

let start cfg =
  let listener, bound = listen_on cfg.addr in
  let t =
    {
      cfg;
      cache = Cache.create ~capacity:cfg.cache_capacity;
      pool = Analysis.Pool.shared_create ~jobs:cfg.jobs;
      listener;
      bound;
      mutex = Mutex.create ();
      stopped = Condition.create ();
      groups = Hashtbl.create 32;
      conns = [];
      inflight = 0;
      stopping = false;
      last_done = Monotonic_clock.now ();
      n_requests = 0;
      n_served = 0;
      n_coalesced = 0;
      n_shed = 0;
    }
  in
  ignore (Thread.create (acceptor t) ());
  if cfg.idle_quiesce_ms > 0 then ignore (Thread.create (housekeeper t) ());
  t

let stop t =
  let already =
    Mutex.lock t.mutex;
    let s = t.stopping in
    t.stopping <- true;
    Mutex.unlock t.mutex;
    s
  in
  if not already then begin
    (try Unix.close t.listener with _ -> ());
    (match t.bound with
    | Unix_sock path -> ( try Unix.unlink path with _ -> ())
    | Tcp _ -> ());
    (* let in-flight work finish and reply, then join the domains *)
    Analysis.Pool.shared_wait t.pool;
    Analysis.Pool.shared_quiesce t.pool;
    Mutex.lock t.mutex;
    let conns = t.conns in
    t.conns <- [];
    Mutex.unlock t.mutex;
    List.iter close_conn conns;
    Mutex.lock t.mutex;
    Condition.broadcast t.stopped;
    Mutex.unlock t.mutex
  end

let () = stop_ref := stop

let wait t =
  Mutex.lock t.mutex;
  while not t.stopping do
    Condition.wait t.stopped t.mutex
  done;
  Mutex.unlock t.mutex
