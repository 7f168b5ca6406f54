(** ARIES-style cold recovery from a whole-runtime crash, and the
    crash-consistency sweep built on it.

    A [Crash] tears down the live GPRS engine: work queues, the ROL
    ring, the live WAL entries and every engine-side table are gone
    (see the crash model in {!Gprs.Engine}). Recovery is the classic
    three-pass ARIES walk over the WAL's stable-storage image:

    - {e analysis} ({!analyze}) finds the last complete checkpoint, the
      retirement horizon (checkpoint [min_retired] joined with every
      later prune marker), the drop set of orders a live recovery had
      already squashed and undone, and from those the {e loser} set —
      sub-threads in flight at the crash;
    - {e redo} re-applies the retired-prefix allocator operations from
      the checkpoint's redo-start LSN forward, conditionally (a record
      whose effect is already in the checkpoint image is a no-op), so
      undo sees the exact crash-time allocator;
    - {e undo} rolls back the losers — architectural writes through
      their history-buffer undo logs, runtime operations through their
      WAL records in reverse LSN order — and precisely restarts their
      threads from the history-buffer checkpoints
      ({!Gprs.Engine.cold_restart}).

    The sweep ({!sweep_gprs}) is the crash-consistency argument: crash
    at {e every} WAL-record boundary (or a seeded sample on large runs)
    and require the recovered run's digest to equal the fault-free
    pilot's, with the analysis' loser set cross-checked against the
    live ROL captured at the crash. {!sweep_pcpr} runs the comparison
    leg: P-CPR restarting from its last committed global checkpoint
    under the same crash schedule. *)

type analysis = {
  horizon : int;  (** orders below this had retired before the crash *)
  dropped : int list;
      (** orders squashed and already undone by live recovery *)
  losers : int list;  (** in-flight orders to undo, ascending *)
  loser_ops : Wal.entry list;
      (** the losers' log records, newest (highest LSN) first *)
  replayed : int;  (** redo-scan length in records *)
  redo : Vm.Mem.t -> int;
      (** install checkpointed allocator + conditional redo; returns
          retired records re-applied *)
  next_sub : int;  (** continues the order-id sequence past the log *)
  points : (int * int) list;
      (** [(lsn, cycle)] of every op record, LSN order — the crash
          points a sweep enumerates, with the cycle for the P-CPR leg *)
}

val analyze : string -> analysis
(** Analysis pass over a stable WAL image ({!Wal.parse_image}).
    @raise Wal.Corrupt on a damaged or checkpoint-less image, or one
    whose op orders span more ids than it has op records (the engine
    logs every order it grants, in sequence) — recovery refuses
    corrupted stable storage rather than guessing. *)

val recover :
  ?mangle:(string -> string) ->
  Gprs.Engine.crash_dump ->
  analysis * float * (unit -> Exec.State.run_result)
(** Full cold recovery from a crash dump: analyze the WAL image, then
    redo/undo/restart through {!Gprs.Engine.cold_restart}. Returns the
    analysis, the host wall-clock seconds recovery took (analysis
    through restart, excluding re-execution), and the resume thunk.
    [mangle] corrupts the image before parsing — the negative-path hook
    for tests ([Wal.Corrupt] must surface, never a silent recovery). *)

(** {2 Normalized failure signatures} *)

(** The canonical outcome vocabulary shared by [crashsweep --json] and
    the [faultsweep] scenario driver. Every exercised fault classifies
    into exactly one signature; only {!Signature.wrong_digest} (or an
    {!Signature.analysis_mismatch}) is a correctness failure — the rest
    are the system surviving bit-identically or explicitly refusing. *)
module Signature : sig
  val ok : string
  (** "recovered-bit-identical" *)

  val refused_corrupt : string
  (** recovery refused a damaged image *)

  val refused_error : string
  (** injected error surfaced to the caller *)

  val shed : string
  (** service refused admission *)

  val hung : string
  (** run or recovery did not complete in budget *)

  val wrong_digest : string
  (** silent divergence — always a failure *)

  val not_triggered : string
  (** armed fault never fired *)

  val analysis_mismatch : string
  (** WAL analysis disagreed with live crash state *)
end

(** {2 Outcome classifiers}

    The one place a run becomes a [(signature, detail)] pair, shared by
    both crash sweeps and the [faultsweep] driver. *)

val classify_run : want:string -> dnc:bool -> (unit -> string) -> string * string
(** A finished run against the reference digest [want]:
    {!Signature.hung} if it did not complete, else {!Signature.ok} or
    {!Signature.wrong_digest} by the digest the thunk computes. *)

val classify_crash :
  ?recovered:(analysis -> float -> unit) ->
  ?resumed:(Exec.State.run_result -> unit) ->
  want:string ->
  digest:(Exec.State.run_result -> string) ->
  finished:(Exec.State.run_result -> string * string) ->
  (unit -> Exec.State.run_result) ->
  string * string
(** An armed GPRS run. If it finishes, [finished] classifies it. If it
    crashes, the dump is cold-recovered ({!recover}; {!Signature.refused_corrupt}
    on a damaged image), the analysis' losers are checked against the
    ROL captured at the crash ({!Signature.analysis_mismatch}), and the
    resumed run is classified by {!classify_run}. [recovered] sees the
    analysis and recovery seconds, [resumed] the resumed run. An
    [Exec.State.Deadlock] from the armed run or the resumed one is
    {!Signature.hung} and an injected [Faults.Points.Fault_error] is
    {!Signature.refused_error}, each with the exception's message as
    detail. *)

(** {2 Crash-consistency sweep} *)

type leg_report = {
  leg : string;
  points_total : int;  (** enumerable crash points *)
  points_run : int;  (** points actually exercised (= total, or sample) *)
  mismatches : (int * string) list;
      (** (crash point, what went wrong); empty on success *)
  outcomes : (int * string) list;
      (** (crash point, {!Signature} string) for every point run, in
          sweep order — the machine-readable view *)
  mean_recovery_s : float;  (** host seconds per cold recovery *)
  max_recovery_s : float;
  replayed_lsns : int;  (** summed over points *)
  redone_ops : int;
  squashed_subs : int;
  crash_cycles : int list;
      (** the simulated cycle of every enumerable crash point, in point
          order: a GPRS leg's pilot WAL records (the schedule a P-CPR
          leg replays), or the cycles a P-CPR leg was given *)
}

val leg_ok : leg_report -> bool

val sample_points : Sim.Prng.t -> int -> 'a list -> 'a list
(** [n] distinct elements chosen by a seeded shuffle, original order
    preserved — how large sweeps subsample their crash points. *)

(** A sweep runs one {!Run.prepared} program, analyzed once, at every
    crash point, and judges each run by the workload's digest. *)

val pilot :
  cfg:Gprs.Engine.config -> Run.prepared -> string * Exec.State.run_result
(** Fault-free stable-armed run: the WAL image whose record boundaries
    the sweep enumerates, and the run whose digest is the reference. *)

val sweep_gprs :
  ?sample:int ->
  ?sample_seed:int ->
  leg:string ->
  cfg:Gprs.Engine.config ->
  Run.prepared ->
  leg_report
(** Crash the run at every WAL op-record boundary ([sample] seeded
    points on large logs; default exhaustive), cold-recover, resume, and
    compare digests against the pilot ({!classify_crash}). A point fails
    if the crash never fires, the image is corrupt, the analysis' losers
    disagree with the ROL captured at the crash, the resumed run does
    not complete or wedges, or the digest differs. *)

val sweep_pcpr :
  leg:string ->
  cfg:Cpr.config ->
  crash_cycles:int list ->
  Run.prepared ->
  leg_report
(** The comparison leg: P-CPR crashed at the given simulated cycles
    (the GPRS sweep's record cycles), restarting from its last committed
    global checkpoint. A cycle past the run's completion is a vacuous
    point (the crash never lands) and counts as ok. *)

val pp_report : Format.formatter -> leg_report -> unit
