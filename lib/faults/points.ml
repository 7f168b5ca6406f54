(* Named fault points (postgres-faultinjector model). One process-global
   registry: the daemon arms points that fire on worker domains, and the
   engine seams are too hot to thread a handle through every call site.
   The unarmed fast path is a single atomic load of the armed count —
   no lock, no allocation — which is what lets the seams stay compiled
   into production paths (see DESIGN.md §7). *)

type point =
  | Wal_append
  | Wal_fsync
  | Checkpoint_begin
  | Checkpoint_end
  | Lock_handoff
  | Barrier_release
  | Alloc_grant
  | Recovery_analysis
  | Recovery_redo
  | Recovery_undo
  | Cold_restart
  | Pool_submit
  | Cache_insert
  | Admission_enqueue

type action = Skip | Error | Crash | Delay | Torn_write
type fire = Skip_fire | Crash_fire | Torn_fire

exception Fault_error of string

let all =
  [
    Wal_append;
    Wal_fsync;
    Checkpoint_begin;
    Checkpoint_end;
    Lock_handoff;
    Barrier_release;
    Alloc_grant;
    Recovery_analysis;
    Recovery_redo;
    Recovery_undo;
    Cold_restart;
    Pool_submit;
    Cache_insert;
    Admission_enqueue;
  ]

let to_name = function
  | Wal_append -> "wal_append"
  | Wal_fsync -> "wal_fsync"
  | Checkpoint_begin -> "checkpoint_begin"
  | Checkpoint_end -> "checkpoint_end"
  | Lock_handoff -> "lock_handoff"
  | Barrier_release -> "barrier_release"
  | Alloc_grant -> "alloc"
  | Recovery_analysis -> "recovery_analysis"
  | Recovery_redo -> "recovery_redo"
  | Recovery_undo -> "recovery_undo"
  | Cold_restart -> "cold_restart"
  | Pool_submit -> "pool_submit"
  | Cache_insert -> "cache_insert"
  | Admission_enqueue -> "admission_enqueue"

let of_name s = List.find_opt (fun p -> to_name p = s) all

let action_name = function
  | Skip -> "skip"
  | Error -> "error"
  | Crash -> "crash"
  | Delay -> "delay"
  | Torn_write -> "torn_write"

let action_of_name = function
  | "skip" -> Some Skip
  | "error" -> Some Error
  | "crash" -> Some Crash
  | "delay" -> Some Delay
  | "torn_write" -> Some Torn_write
  | _ -> None

(* Soundness matrix. Skip is offered only where the seam has a
   well-defined "didn't happen" meaning (a checkpoint that never ran, a
   cache that stays cold); skipping a WAL append or a lock handoff would silently
   diverge the run instead of failing it. Crash is an engine-runtime
   notion (captured as a crash dump), so it is offered only at seams
   executing under the engine's run loop. Torn_write needs a stable WAL
   buffer under the seam's hand. *)
let supported = function
  | Wal_append -> [ Error; Crash; Delay; Torn_write ]
  | Wal_fsync -> [ Error; Crash; Delay; Torn_write ]
  | Checkpoint_begin | Checkpoint_end -> [ Skip; Error; Crash; Delay ]
  | Lock_handoff | Barrier_release | Alloc_grant -> [ Error; Crash; Delay ]
  | Recovery_analysis | Recovery_redo | Recovery_undo | Cold_restart ->
    [ Error; Delay ]
  | Pool_submit | Admission_enqueue -> [ Error; Delay ]
  | Cache_insert -> [ Skip; Error; Delay ]

(* --- registry ----------------------------------------------------------- *)

type slot = {
  mutable armed : action option;
  mutable start_hit : int;
  mutable end_hit : int;
  mutable delay_us : int;
  mutable hits : int;
  mutable fires : int;
}

let n_points = List.length all
let index p = match List.find_index (fun q -> q = p) all with
  | Some i -> i
  | None -> assert false

let slots =
  Array.init n_points (fun _ ->
      {
        armed = None;
        start_hit = 1;
        end_hit = max_int;
        delay_us = 50;
        hits = 0;
        fires = 0;
      })

let mutex = Mutex.create ()

(* Armed-point count, readable without the lock: the only state the
   unarmed fast path touches. *)
let armed_n = Atomic.make 0

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let recount_armed () =
  let n = Array.fold_left (fun a s -> if s.armed = None then a else a + 1) 0 slots in
  Atomic.set armed_n n

let arm ?(start_hit = 1) ?(end_hit = max_int) ?(delay_us = 50) p action =
  if not (List.mem action (supported p)) then
    Stdlib.Error
      (Printf.sprintf "point %s does not support action %s (supported: %s)"
         (to_name p) (action_name action)
         (String.concat ", " (List.map action_name (supported p))))
  else if start_hit < 1 || end_hit < start_hit then
    Stdlib.Error
      (Printf.sprintf "bad trigger window [%d,%d] for %s" start_hit end_hit
         (to_name p))
  else if delay_us < 0 then Stdlib.Error "negative delay_us"
  else
    locked (fun () ->
        let s = slots.(index p) in
        s.armed <- Some action;
        s.start_hit <- start_hit;
        s.end_hit <- end_hit;
        s.delay_us <- delay_us;
        s.hits <- 0;
        s.fires <- 0;
        recount_armed ();
        Stdlib.Ok ())

let disarm p =
  locked (fun () ->
      slots.(index p).armed <- None;
      recount_armed ())

let disarm_if pred =
  locked (fun () ->
      Array.iteri
        (fun i s ->
          match s.armed with
          | Some a when pred (List.nth all i) a -> s.armed <- None
          | _ -> ())
        slots;
      recount_armed ())

let reset p =
  locked (fun () ->
      let s = slots.(index p) in
      s.armed <- None;
      s.start_hit <- 1;
      s.end_hit <- max_int;
      s.delay_us <- 50;
      s.hits <- 0;
      s.fires <- 0;
      recount_armed ())

let reset_all () = List.iter reset all

type status = {
  s_point : point;
  s_action : action option;
  s_start : int;
  s_end : int;
  s_delay_us : int;
  s_hits : int;
  s_fires : int;
}

let status p =
  locked (fun () ->
      let s = slots.(index p) in
      {
        s_point = p;
        s_action = s.armed;
        s_start = s.start_hit;
        s_end = s.end_hit;
        s_delay_us = s.delay_us;
        s_hits = s.hits;
        s_fires = s.fires;
      })

let status_all () =
  List.filter
    (fun st -> st.s_action <> None || st.s_hits > 0 || st.s_fires > 0)
    (List.map status all)

let armed_count () = Atomic.get armed_n

(* --- the seam call ------------------------------------------------------ *)

let sample_slow p =
  let verdict =
    locked (fun () ->
        let s = slots.(index p) in
        match s.armed with
        | None -> None
        | Some action ->
          s.hits <- s.hits + 1;
          if s.hits >= s.start_hit && s.hits <= s.end_hit then begin
            s.fires <- s.fires + 1;
            Some (action, s.delay_us)
          end
          else None)
  in
  (* The sleep and the raise happen outside the lock: a long delay must
     not wedge status/arm calls from other threads. *)
  match verdict with
  | None -> None
  | Some (Delay, us) ->
    if us > 0 then Unix.sleepf (float_of_int us *. 1e-6);
    None
  | Some (Error, _) ->
    raise (Fault_error (Printf.sprintf "%s: injected fault" (to_name p)))
  | Some (Skip, _) -> Some Skip_fire
  | Some (Crash, _) -> Some Crash_fire
  | Some (Torn_write, _) -> Some Torn_fire

let[@inline] sample p = if Atomic.get armed_n = 0 then None else sample_slow p
let strike p = match sample p with Some _ | None -> ()

let wait_until_triggered ?(timeout_s = 10.0) p n =
  if n <= 0 then true
  else begin
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec loop () =
      let got = locked (fun () -> slots.(index p).fires >= n) in
      if got then true
      else if Unix.gettimeofday () >= deadline then false
      else begin
        (* No timed Condition.wait in the stdlib; poll at a grain far
           below any test's patience. *)
        Unix.sleepf 0.002;
        loop ()
      end
    in
    loop ()
  end

(* --- env arming --------------------------------------------------------- *)

(* GPRS_FAULT_POINTS="lock_handoff=delay:0,wal_append=crash@5"
   clause := point=action[:delay_us][@start[-end]] *)
let arm_clause clause =
  let fail fmt = Printf.ksprintf (fun m -> Stdlib.Error m) fmt in
  match String.index_opt clause '=' with
  | None -> fail "clause %S: expected point=action" clause
  | Some eq -> (
    let pname = String.sub clause 0 eq in
    let rest = String.sub clause (eq + 1) (String.length clause - eq - 1) in
    let rest, window =
      match String.index_opt rest '@' with
      | None -> (rest, None)
      | Some at ->
        ( String.sub rest 0 at,
          Some (String.sub rest (at + 1) (String.length rest - at - 1)) )
    in
    let aname, delay_us =
      match String.index_opt rest ':' with
      | None -> (rest, None)
      | Some c ->
        ( String.sub rest 0 c,
          int_of_string_opt
            (String.sub rest (c + 1) (String.length rest - c - 1)) )
    in
    let window =
      match window with
      | None -> Stdlib.Ok (1, max_int)
      | Some w -> (
        match String.index_opt w '-' with
        | None -> (
          match int_of_string_opt w with
          | Some n -> Stdlib.Ok (n, n)
          | None -> fail "clause %S: bad trigger %S" clause w)
        | Some d -> (
          let lo = String.sub w 0 d in
          let hi = String.sub w (d + 1) (String.length w - d - 1) in
          match (int_of_string_opt lo, int_of_string_opt hi) with
          | Some lo, Some hi -> Stdlib.Ok (lo, hi)
          | _ -> fail "clause %S: bad trigger window %S" clause w))
    in
    match (of_name pname, action_of_name aname, window) with
    | None, _, _ -> fail "clause %S: unknown point %S" clause pname
    | _, None, _ -> fail "clause %S: unknown action %S" clause aname
    | Some p, Some a, Stdlib.Ok (lo, hi) ->
      arm ?delay_us p a ~start_hit:lo ~end_hit:hi
    | _, _, (Stdlib.Error _ as e) -> e)

let arm_from_env () =
  match Sys.getenv_opt "GPRS_FAULT_POINTS" with
  | None | Some "" -> Stdlib.Ok ()
  | Some spec ->
    List.fold_left
      (fun acc clause ->
        match acc with
        | Stdlib.Error _ as e -> e
        | Stdlib.Ok () -> if clause = "" then Stdlib.Ok () else arm_clause (String.trim clause))
      (Stdlib.Ok ())
      (String.split_on_char ',' spec)

let () =
  match arm_from_env () with
  | Stdlib.Ok () -> ()
  | Stdlib.Error msg ->
    prerr_endline ("GPRS_FAULT_POINTS: " ^ msg);
    exit 2
