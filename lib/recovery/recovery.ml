(* ARIES-style cold recovery over the GPRS WAL's stable-storage image,
   plus the crash-consistency sweep harness built on it. *)

module IntSet = Set.Make (Int)

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
  (* Analysis pass: last complete checkpoint, retirement horizon, the
     drop set of live-squashed orders, and every op record in LSN order. *)
  let ckpt = ref None in
  let horizon = ref 0 in
  let dropped = ref IntSet.empty in
  let ops = ref [] in
  List.iter
    (fun r ->
      match r with
      | Wal.S_op { at; e } -> ops := (at, e) :: !ops
      | Wal.S_prune { upto; _ } -> horizon := Stdlib.max !horizon upto
      | Wal.S_drop { orders; _ } ->
        List.iter (fun o -> dropped := IntSet.add o !dropped) orders
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
  let ops = List.rev !ops in
  let horizon = !horizon in
  let dropped = !dropped in
  (* Losers: every order the log ever granted that neither retired
     (order >= horizon) nor was squashed-and-undone by a live recovery
     before the crash (drop markers). *)
  let losers =
    List.fold_left
      (fun acc (_, (e : Wal.entry)) ->
        if e.Wal.order >= horizon && not (IntSet.mem e.Wal.order dropped) then
          IntSet.add e.Wal.order acc
        else acc)
      IntSet.empty ops
  in
  let loser_ops =
    List.filter (fun (_, (e : Wal.entry)) -> IntSet.mem e.Wal.order losers) ops
    |> List.rev_map snd
  in
  let retired o = o < horizon && not (IntSet.mem o dropped) in
  let replayed =
    List.length
      (List.filter (fun (_, (e : Wal.entry)) -> e.Wal.lsn >= ckpt.c_redo_start) ops)
  in
  (* Redo: install the checkpointed allocator, then conditionally
     re-apply the retired-prefix records from the redo-start LSN on.
     Allocs are positional carves (no-op when the checkpoint already
     holds them); frees are the retirement-time application of the
     quarantined blocks, guarded so a free already reflected in the
     checkpoint is not applied twice. Thread/ROL/queue/IO records need no
     allocator action — their state lives in the durable TCBs or is
     rebuilt by the restart logic — but they count as redone work. *)
  let redo mem =
    Faults.Points.strike Faults.Points.Recovery_redo;
    Vm.Mem.restore_alloc_parts mem ~brk:ckpt.c_brk ~free:ckpt.c_free
      ~used:ckpt.c_used;
    let n = ref 0 in
    List.iter
      (fun (_, (e : Wal.entry)) ->
        if e.Wal.lsn >= ckpt.c_redo_start && retired e.Wal.order then begin
          incr n;
          match e.Wal.op with
          | Wal.Alloc { addr; size } -> Vm.Mem.redo_alloc mem addr ~size
          | Wal.Free { addr; size } -> (
            match Vm.Mem.block_size mem addr with
            | Some s when s = size -> Vm.Mem.free mem addr
            | Some _ | None -> ())
          | Wal.Thread_create _ | Wal.Rol_insert _ | Wal.Sched_enqueue _
          | Wal.Io_op _ -> ()
        end)
      ops;
    !n
  in
  let next_sub =
    1
    + List.fold_left
        (fun acc (_, (e : Wal.entry)) -> Stdlib.max acc e.Wal.order)
        (-1) ops
  in
  {
    horizon;
    dropped = IntSet.elements dropped;
    losers = IntSet.elements losers;
    loser_ops;
    replayed;
    redo;
    next_sub;
    points = List.map (fun (at, (e : Wal.entry)) -> (e.Wal.lsn, at)) ops;
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
  Gprs.Engine.run ~lint:`Off ?wal_out ~blocks:p.Run.blocks cfg p.Run.program

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
