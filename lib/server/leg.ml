(* The experiment "leg": the four runtime knobs that the one-shot CLI
   reads from the environment at process start. A long-lived daemon
   must pin them once, at server start, into an explicit record: the
   knobs are process-global, so if they could drift between requests a
   cached program compiled under one leg could serve a request issued
   under another. The cache key therefore includes [key] of the leg the
   server snapshotted. *)

type t = {
  fuse : bool;  (* GPRS_NO_FUSE unset *)
  compile : bool;  (* GPRS_NO_COMPILE unset *)
  pool : bool;  (* GPRS_NO_POOL unset *)
  tsan : bool;  (* GPRS_TSAN set *)
}

let capture () =
  {
    fuse = Vm.Block.fusing ();
    compile = Vm.Block.compiling ();
    pool = Gprs.Subthread.pooling ();
    tsan = Exec.Tsan.enabled ();
  }

(* [pool] governs two switches initialized from the same GPRS_NO_POOL
   variable: sub-thread record pooling and event-queue cell recycling.
   Applying the leg keeps them in lockstep, exactly as env init does. *)
let apply l =
  Vm.Block.set_fusing l.fuse;
  Vm.Block.set_compiling l.compile;
  Gprs.Subthread.set_pooling l.pool;
  Sim.Event_queue.set_recycling l.pool;
  Exec.Tsan.set_enabled l.tsan

let key l =
  Printf.sprintf "f%db%dp%dt%d"
    (Bool.to_int l.fuse) (Bool.to_int l.compile) (Bool.to_int l.pool)
    (Bool.to_int l.tsan)

let to_json l =
  Json.Obj
    [
      ("fuse", Json.Bool l.fuse);
      ("compile", Json.Bool l.compile);
      ("pool", Json.Bool l.pool);
      ("tsan", Json.Bool l.tsan);
    ]
