(* ARIES-style cold recovery over the GPRS WAL's stable-storage image,
   plus the crash-consistency sweep harness built on it. *)

type analysis = {
  horizon : int;
  dropped : int list;
  losers : int list;
  loser_ops : Wal.entry list;
  replayed : int;
  redo : Vm.Mem.t -> int;
  next_sub : int;
  points : (int * int) list;
}

(* Concrete copy of the inline S_ckpt_end payload, so the analysis can
   carry it around. *)
type ckpt = {
  c_min_retired : int;
  c_redo_start : int;
  c_brk : int;
  c_free : (int * int) list;
  c_used : (int * int) list;
}

let analyze image =
  Faults.Points.strike Faults.Points.Recovery_analysis;
  let recs = Wal.parse_image image in
  (* One walk over the records: last complete checkpoint, retirement
     horizon, the drop set of live-squashed orders, every op record
     newest first, and the span of op orders. *)
  let ckpt = ref None and horizon = ref 0 and dropped = ref [] in
  let ops = ref [] and n_ops = ref 0 and lo = ref max_int and hi = ref (-1) in
  List.iter
    (fun r ->
      match r with
      | Wal.S_op { at; e } ->
        ops := (at, e) :: !ops;
        incr n_ops;
        if e.Wal.order < !lo then lo := e.Wal.order;
        if e.Wal.order > !hi then hi := e.Wal.order
      | Wal.S_prune { upto; _ } -> horizon := Stdlib.max !horizon upto
      | Wal.S_drop { orders; _ } -> dropped := List.rev_append orders !dropped
      | Wal.S_ckpt_begin _ -> ()
      | Wal.S_ckpt_end { min_retired; redo_start; brk; free; used; _ } ->
        (* Begin records carry no payload: a begin without its end means
           the checkpoint did not complete and the previous one governs. *)
        horizon := Stdlib.max !horizon min_retired;
        ckpt :=
          Some
            {
              c_min_retired = min_retired;
              c_redo_start = redo_start;
              c_brk = brk;
              c_free = free;
              c_used = used;
            })
    recs;
  let ckpt =
    match !ckpt with
    | Some c -> c
    | None -> raise (Wal.Corrupt "no complete checkpoint record in image")
  in
  (* The engine logs a ROL insert for every order it grants, and grants
     them in sequence, so the op orders of an image it wrote are one
     span no wider than its op count. *)
  let lo = !lo and hi = !hi in
  let span = if !n_ops = 0 then 0 else hi - lo + 1 in
  (* [span] wraps to <= 0 when the true width passes max_int. *)
  if !n_ops > 0 && (span <= 0 || span > !n_ops) then
    raise
      (Wal.Corrupt
         (Printf.sprintf "op orders %d..%d span more than the image's %d op records" lo hi
            !n_ops));
  let horizon = !horizon in
  let dropped = List.sort_uniq compare !dropped in
  (* One mark per op order in [lo, hi]: dropped, or a loser — an order
     the log granted that neither retired (order >= horizon) nor was
     squashed-and-undone by a live recovery before the crash. *)
  let marks = Bytes.make span '\000' in
  List.iter (fun o -> if o >= lo && o <= hi then Bytes.set marks (o - lo) 'd') dropped;
  (* One walk over the ops, newest first: points and the redo set come
     out oldest first, the loser ops newest first (the undo order). *)
  let retired o = o < horizon && Bytes.get marks (o - lo) <> 'd' in
  let loser_ops = ref [] and points = ref [] and redo_ops = ref [] in
  let replayed = ref 0 in
  List.iter
    (fun (at, (e : Wal.entry)) ->
      let o = e.Wal.order in
      if o >= horizon && Bytes.get marks (o - lo) <> 'd' then begin
        Bytes.set marks (o - lo) 'l';
        loser_ops := e :: !loser_ops
      end;
      if e.Wal.lsn >= ckpt.c_redo_start then begin
        incr replayed;
        if retired o then redo_ops := e.Wal.op :: !redo_ops
      end;
      points := (e.Wal.lsn, at) :: !points)
    !ops;
  let losers = ref [] in
  for i = Bytes.length marks - 1 downto 0 do
    if Bytes.get marks i = 'l' then losers := (lo + i) :: !losers
  done;
  let redo_ops = !redo_ops in
  let redo mem =
    Faults.Points.strike Faults.Points.Recovery_redo;
    Vm.Mem.restore_alloc_parts mem ~brk:ckpt.c_brk ~free:ckpt.c_free
      ~used:ckpt.c_used;
    List.iter
      (function
        | Wal.Alloc { addr; size } -> Vm.Mem.redo_alloc mem addr ~size
        | Wal.Free { addr; size } -> (
          match Vm.Mem.block_size mem addr with
          | Some s when s = size -> Vm.Mem.free mem addr
          | Some _ | None -> ())
        | Wal.Thread_create _ | Wal.Rol_insert _ | Wal.Sched_enqueue _
        | Wal.Io_op _ -> ())
      redo_ops;
    List.length redo_ops
  in
  {
    horizon;
    dropped;
    losers = !losers;
    loser_ops = List.rev !loser_ops;
    replayed = !replayed;
    redo;
    next_sub = hi + 1;
    points = !points;
  }

let recover ?(mangle = fun s -> s) dump =
  let t0 = Unix.gettimeofday () in
  let a = analyze (mangle (Gprs.Engine.dump_wal_image dump)) in
  let resume =
    Gprs.Engine.cold_restart dump ~redo:a.redo ~loser_ops:a.loser_ops
      ~replayed:a.replayed ~next_sub:a.next_sub
  in
  let recovery_s = Unix.gettimeofday () -. t0 in
  (a, recovery_s, resume)

(* ------------------------------------------------------------------ *)
(* Normalized failure signatures                                       *)

(* The canonical outcome vocabulary shared by the crash sweep's --json
   output and the faultsweep scenario driver: every exercised fault lands
   in exactly one bucket, and only [wrong_digest] (or a sweep mismatch)
   is a correctness failure — everything else is the system refusing,
   shedding, or surviving bit-identically. *)
module Signature = struct
  let ok = "recovered-bit-identical"
  let refused_corrupt = "refused-corrupt"
  let refused_error = "refused-error"
  let shed = "shed"
  let hung = "hung-timeout"
  let wrong_digest = "wrong-digest"
  let not_triggered = "not-triggered"
  let analysis_mismatch = "analysis-mismatch"
end

(* ------------------------------------------------------------------ *)
(* Outcome classifiers                                                 *)

let classify_run ~want ~dnc got =
  if dnc then (Signature.hung, "run did not complete")
  else
    let got = got () in
    if String.equal got want then (Signature.ok, "")
    else (Signature.wrong_digest, Printf.sprintf "digest %s, want %s" got want)

let classify_crash ?(recovered = fun _ _ -> ()) ?(resumed = ignore) ~want
    ~digest ~finished run =
  try
    match run () with
    | r -> finished r
    | exception Gprs.Engine.Crashed dump -> (
      match recover dump with
      | exception Wal.Corrupt msg ->
        (Signature.refused_corrupt, "corrupt WAL image: " ^ msg)
      | a, secs, resume ->
        recovered a secs;
        if a.losers <> Gprs.Engine.dump_active_ids dump then
          ( Signature.analysis_mismatch,
            "WAL analysis loser set <> live ROL at crash" )
        else
          let r = resume () in
          resumed r;
          classify_run ~want ~dnc:r.Exec.State.dnc (fun () -> digest r))
  with
  | Exec.State.Deadlock msg -> (Signature.hung, msg)
  | Faults.Points.Fault_error msg -> (Signature.refused_error, msg)

(* ------------------------------------------------------------------ *)
(* Crash-consistency sweep                                             *)

type leg_report = {
  leg : string;
  points_total : int;
  points_run : int;
  mismatches : (int * string) list;
  outcomes : (int * string) list;
  mean_recovery_s : float;
  max_recovery_s : float;
  replayed_lsns : int;
  redone_ops : int;
  squashed_subs : int;
  crash_cycles : int list;
}

let leg_ok r = r.mismatches = []

(* Every run of a sweep reuses the prepared program's analyzed blocks. *)
let gprs_run ?wal_out cfg (p : Run.prepared) =
  Gprs.Engine.run ?wal_out ~blocks:p.Run.blocks cfg p.Run.program

let pilot ~cfg p =
  let out = ref "" in
  let r = gprs_run ~wal_out:out { cfg with Gprs.Engine.wal_stable = true } p in
  (!out, r)

(* [n] distinct elements of [pts], chosen by a seeded shuffle so large
   sweeps are reproducible; order of the survivors is preserved. *)
let sample_points prng n pts =
  let arr = Array.of_list pts in
  if n >= Array.length arr then pts
  else begin
    let idx = Array.init (Array.length arr) Fun.id in
    Sim.Prng.shuffle prng idx;
    let keep = Array.sub idx 0 n in
    Array.sort compare keep;
    Array.to_list (Array.map (fun i -> arr.(i)) keep)
  end

(* A leg over [points], each classified by [classify]: every point's
   signature in sweep order, and the detail of each one that failed. *)
let leg_of ~leg ~crash_cycles classify points =
  let results = List.map (fun p -> (p, classify p)) points in
  {
    leg;
    points_total = List.length crash_cycles;
    points_run = List.length points;
    mismatches =
      List.filter_map
        (fun (p, (sg, detail)) ->
          if String.equal sg Signature.ok then None else Some (p, detail))
        results;
    outcomes = List.map (fun (p, (sg, _)) -> (p, sg)) results;
    mean_recovery_s = 0.0;
    max_recovery_s = 0.0;
    replayed_lsns = 0;
    redone_ops = 0;
    squashed_subs = 0;
    crash_cycles;
  }

let sweep_gprs ?sample ?(sample_seed = 7) ~leg ~cfg (p : Run.prepared) =
  let digest = p.Run.spec.Workloads.Workload.digest in
  let image, pr = pilot ~cfg p in
  let want = digest pr in
  let a0 = analyze image in
  let chosen =
    match sample with
    | Some n when n < List.length a0.points ->
      sample_points (Sim.Prng.create sample_seed) n a0.points
    | Some _ | None -> a0.points
  in
  let sum_s = ref 0.0 and max_s = ref 0.0 in
  let replayed = ref 0 and redone = ref 0 and squashed = ref 0 in
  let recovered a secs =
    sum_s := !sum_s +. secs;
    if secs > !max_s then max_s := secs;
    replayed := !replayed + a.replayed
  in
  let resumed (r : Exec.State.run_result) =
    redone :=
      !redone + Sim.Stats.get r.Exec.State.run_stats "recovery.redone_ops";
    squashed :=
      !squashed + Sim.Stats.get r.Exec.State.run_stats "recovery.squashed_subs"
  in
  let classify lsn =
    classify_crash ~recovered ~resumed ~want ~digest
      ~finished:(fun _ -> (Signature.not_triggered, "crash point never fired"))
      (fun () -> gprs_run { cfg with Gprs.Engine.crash_lsn = Some lsn } p)
  in
  let r =
    leg_of ~leg ~crash_cycles:(List.map snd a0.points) classify
      (List.map fst chosen)
  in
  let n = r.points_run in
  {
    r with
    mean_recovery_s = (if n = 0 then 0.0 else !sum_s /. float_of_int n);
    max_recovery_s = !max_s;
    replayed_lsns = !replayed;
    redone_ops = !redone;
    squashed_subs = !squashed;
  }

let sweep_pcpr ~leg ~cfg ~crash_cycles (p : Run.prepared) =
  let digest = p.Run.spec.Workloads.Workload.digest in
  let run crash_at =
    Cpr.run ~blocks:p.Run.blocks { cfg with Cpr.crash_at } p.Run.program
  in
  let want = digest (run None) in
  leg_of ~leg ~crash_cycles
    (fun c ->
      let r = run (Some c) in
      classify_run ~want ~dnc:r.Exec.State.dnc (fun () -> digest r))
    crash_cycles

let pp_report ppf r =
  Format.fprintf ppf "%-14s %4d/%-4d points" r.leg r.points_run r.points_total;
  if leg_ok r then Format.fprintf ppf "  ok"
  else begin
    Format.fprintf ppf "  %d MISMATCH" (List.length r.mismatches);
    List.iteri
      (fun i (p, msg) ->
        if i < 5 then Format.fprintf ppf "@.    point %d: %s" p msg)
      r.mismatches
  end;
  if r.replayed_lsns > 0 then
    Format.fprintf ppf
      "  (recovery mean %.1fus max %.1fus, %d lsns replayed, %d redone, %d \
       squashed)"
      (1e6 *. r.mean_recovery_s) (1e6 *. r.max_recovery_s) r.replayed_lsns
      r.redone_ops r.squashed_subs
