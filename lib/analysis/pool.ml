(* Bounded worker pool over OCaml 5 domains. Each simulation run is a
   sealed deterministic single-threaded computation, so fanning the
   per-workload/per-engine runs across domains changes wall-clock only:
   results are reassembled in input order, making `-j N` output
   bit-identical to `-j 1`. *)

let available_jobs () = Domain.recommended_domain_count ()

type 'b outcome = Value of 'b | Raised of exn * Printexc.raw_backtrace

let map ~jobs f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let jobs = Stdlib.min jobs n in
  if jobs <= 1 then Array.to_list (Array.map f items)
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r =
            try Value (f items.(i))
            with e -> Raised (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          loop ()
        end
      in
      loop ()
    in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list
      (Array.map
         (function
           | Some (Value v) -> v
           | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
         results)
  end

(* --- shared long-lived pool ---------------------------------------------- *)

(* [map] spawns domains per call and joins them before returning — right
   for a one-shot experiment sweep, wrong for a daemon that fields
   requests forever: per-call spawn/join costs show up in every
   request's latency, and joined-at-exit discipline has no natural place
   to live. The shared pool keeps up to [jobs] worker domains across
   submissions, spawning them lazily on demand and parking them on a
   condvar between tasks; [shared_quiesce] drains and joins (the
   daemon's idle housekeeping), after which the next submission
   transparently respawns.

   [shared_submit] and [shared_quiesce] may race (the daemon's reader
   threads submit while the housekeeper quiesces, and [stop] may quiesce
   concurrently with the housekeeper), so the quiesce protocol must not
   strand work or deadlock the joiner:
   - workers drain the queue before honoring [sh_quiescing], so a task
     that slips in after the drain check still runs;
   - [shared_submit] never spawns or clears [sh_quiescing] while a
     quiesce holds the domain list — flipping the flag mid-join would
     park a worker forever and deadlock [Domain.join];
   - after the join, the quiescer respawns workers for any tasks that
     arrived while no worker was left alive to drain them;
   - a second concurrent quiesce parks until the first finishes, then
     re-runs the full protocol itself. *)

type shared = {
  sh_mutex : Mutex.t;
  sh_task : Condition.t;  (* workers park here waiting for tasks *)
  sh_drain : Condition.t;  (* waiters park for pending = 0 / quiesce end *)
  sh_jobs : int;
  sh_queue : (unit -> unit) Queue.t;
  mutable sh_running : int;  (* tasks currently executing *)
  mutable sh_idle : int;  (* workers parked in [Condition.wait] *)
  mutable sh_workers : int;
  mutable sh_quiescing : bool;  (* a quiesce owns [sh_doms] and is joining *)
  mutable sh_doms : unit Domain.t list;
}

let shared_create ~jobs =
  {
    sh_mutex = Mutex.create ();
    sh_task = Condition.create ();
    sh_drain = Condition.create ();
    sh_jobs = Stdlib.max 1 jobs;
    sh_queue = Queue.create ();
    sh_running = 0;
    sh_idle = 0;
    sh_workers = 0;
    sh_quiescing = false;
    sh_doms = [];
  }

let shared_worker sh () =
  Mutex.lock sh.sh_mutex;
  let rec loop () =
    while Queue.is_empty sh.sh_queue && not sh.sh_quiescing do
      sh.sh_idle <- sh.sh_idle + 1;
      Condition.wait sh.sh_task sh.sh_mutex;
      sh.sh_idle <- sh.sh_idle - 1
    done;
    if not (Queue.is_empty sh.sh_queue) then begin
      (* Queued work wins over quiescing: a task submitted between the
         quiescer's drain check and our exit must not strand. *)
      let task = Queue.pop sh.sh_queue in
      sh.sh_running <- sh.sh_running + 1;
      Mutex.unlock sh.sh_mutex;
      (* A task that raises must not take its worker down with it;
         submitters that care about failures catch inside the thunk (the
         daemon wraps each request in its own error reply). *)
      (try task () with _ -> ());
      Mutex.lock sh.sh_mutex;
      sh.sh_running <- sh.sh_running - 1;
      if sh.sh_running = 0 && Queue.is_empty sh.sh_queue then
        Condition.broadcast sh.sh_drain;
      loop ()
    end
    else begin
      sh.sh_workers <- sh.sh_workers - 1;
      Mutex.unlock sh.sh_mutex
    end
  in
  loop ()

let shared_submit sh task =
  (* Fault seam: an injected error here models a task that could not be
     queued; callers owning group bookkeeping must catch it. *)
  Faults.Points.strike Faults.Points.Pool_submit;
  Mutex.lock sh.sh_mutex;
  Queue.push task sh.sh_queue;
  if sh.sh_quiescing then
    (* The quiescer owns [sh_doms]; spawning here would leak the domain
       and clearing the flag would deadlock its join. Wake any worker
       not yet exited — it drains the queue before exiting — and if none
       is left, the quiescer respawns for us after the join. *)
    Condition.broadcast sh.sh_task
  else if sh.sh_idle = 0 && sh.sh_workers < sh.sh_jobs then begin
    sh.sh_doms <- Domain.spawn (shared_worker sh) :: sh.sh_doms;
    sh.sh_workers <- sh.sh_workers + 1
  end
  else Condition.signal sh.sh_task;
  Mutex.unlock sh.sh_mutex

let shared_pending sh =
  Mutex.lock sh.sh_mutex;
  let n = Queue.length sh.sh_queue + sh.sh_running in
  Mutex.unlock sh.sh_mutex;
  n

let shared_workers sh =
  Mutex.lock sh.sh_mutex;
  let n = sh.sh_workers in
  Mutex.unlock sh.sh_mutex;
  n

let shared_wait sh =
  Mutex.lock sh.sh_mutex;
  while not (Queue.is_empty sh.sh_queue && sh.sh_running = 0) do
    Condition.wait sh.sh_drain sh.sh_mutex
  done;
  Mutex.unlock sh.sh_mutex

let shared_quiesce sh =
  Mutex.lock sh.sh_mutex;
  while
    sh.sh_quiescing
    || not (Queue.is_empty sh.sh_queue && sh.sh_running = 0)
  do
    Condition.wait sh.sh_drain sh.sh_mutex
  done;
  (* Drained, and no other quiesce in flight: claim the domain list and
     tell workers to exit, atomically with the drain check — no window
     for a submit to slip between them. *)
  sh.sh_quiescing <- true;
  let doms = sh.sh_doms in
  sh.sh_doms <- [];
  Condition.broadcast sh.sh_task;
  Mutex.unlock sh.sh_mutex;
  List.iter Domain.join doms;
  Mutex.lock sh.sh_mutex;
  sh.sh_quiescing <- false;
  (* Tasks submitted while we held the flag and every worker had already
     exited would otherwise strand: respawn for whatever is queued. *)
  let need = Stdlib.min (Queue.length sh.sh_queue) sh.sh_jobs in
  for _ = sh.sh_workers + 1 to need do
    sh.sh_doms <- Domain.spawn (shared_worker sh) :: sh.sh_doms;
    sh.sh_workers <- sh.sh_workers + 1
  done;
  Condition.broadcast sh.sh_drain;
  Mutex.unlock sh.sh_mutex
