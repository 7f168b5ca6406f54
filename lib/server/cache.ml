(* LRU program cache: the daemon's hot path. An entry is everything the
   cold path computes per program — the decoded workload, its
   fused/compiled superblocks, and the lint admission verdict — so a
   warm request skips all three and goes straight to execution.

   Sharing one entry across concurrent runs is sound: programs are
   immutable after build (input arrays are copied into each run's
   [Vm.Io] at [Exec.State.create]), [Vm.Block.analyze] results are
   immutable after analyze, and the production-vs-reference sweeps pin
   compiled execution to the single-step interpreter, so the cached
   decode is observationally identical to a fresh one.

   Builds are deduplicated in flight: the first requester of a key
   installs a [Building] slot and builds outside the lock; concurrent
   requesters of the same key park on the condvar instead of building
   the same program twice. *)

type entry = {
  e_spec : Workloads.Workload.spec;
  e_program : Vm.Isa.program;
  e_blocks : Vm.Block.t;
  e_lint_errors : int;  (* error-severity findings; > 0 refuses runs *)
}

type slot = Built of entry | Building

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  tbl : (string, slot) Hashtbl.t;
  stamp : (string, int) Hashtbl.t;  (* key -> last-use tick (Built only) *)
  capacity : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 32;
    stamp = Hashtbl.create 32;
    capacity = Stdlib.max 1 capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let touch_locked t key =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.stamp key t.tick

(* Evict least-recently-used Built entries down to capacity. [Building]
   slots are never evicted (their builder will install and possibly
   trigger eviction of an older entry). *)
let evict_locked t =
  let built () =
    Hashtbl.fold
      (fun k s acc -> match s with Built _ -> k :: acc | Building -> acc)
      t.tbl []
  in
  let rec go keys =
    if List.length keys > t.capacity then begin
      let oldest =
        List.fold_left
          (fun best k ->
            let s = try Hashtbl.find t.stamp k with Not_found -> 0 in
            match best with
            | Some (_, bs) when bs <= s -> best
            | _ -> Some (k, s))
          None keys
      in
      match oldest with
      | None -> ()
      | Some (k, _) ->
        Hashtbl.remove t.tbl k;
        Hashtbl.remove t.stamp k;
        t.evictions <- t.evictions + 1;
        go (List.filter (fun k' -> k' <> k) keys)
    end
  in
  go (built ())

let rec find t ~key ~build =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.tbl key with
  | Some (Built e) ->
    t.hits <- t.hits + 1;
    touch_locked t key;
    Mutex.unlock t.mutex;
    (e, true)
  | Some Building ->
    (* someone else is decoding this key right now; wait them out *)
    Condition.wait t.cond t.mutex;
    Mutex.unlock t.mutex;
    find t ~key ~build
  | None ->
    t.misses <- t.misses + 1;
    Hashtbl.replace t.tbl key Building;
    Mutex.unlock t.mutex;
    let fire, e =
      try
        (* Fault seam: an injected error is a failed build (the Building
           slot is removed and waiters re-race, like any build error); a
           skip builds the entry but never installs it, so the cache
           stays cold. *)
        let fire = Faults.Points.sample Faults.Points.Cache_insert in
        (fire, build ())
      with ex ->
        Mutex.lock t.mutex;
        Hashtbl.remove t.tbl key;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        raise ex
    in
    let insert = fire <> Some Faults.Points.Skip_fire in
    Mutex.lock t.mutex;
    if insert then begin
      Hashtbl.replace t.tbl key (Built e);
      touch_locked t key;
      evict_locked t
    end
    else Hashtbl.remove t.tbl key;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    (e, false)

let clear t =
  Mutex.lock t.mutex;
  (* drop only settled entries; an in-flight build installs itself when
     it finishes, exactly as if it had raced the clear *)
  let keys =
    Hashtbl.fold
      (fun k s acc -> match s with Built _ -> k :: acc | Building -> acc)
      t.tbl []
  in
  List.iter
    (fun k ->
      Hashtbl.remove t.tbl k;
      Hashtbl.remove t.stamp k)
    keys;
  Mutex.unlock t.mutex

type stats = {
  length : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

let stats t =
  Mutex.lock t.mutex;
  let length =
    Hashtbl.fold
      (fun _ s acc -> match s with Built _ -> acc + 1 | Building -> acc)
      t.tbl 0
  in
  let r =
    {
      length;
      capacity = t.capacity;
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
    }
  in
  Mutex.unlock t.mutex;
  r
