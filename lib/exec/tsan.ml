(* FastTrack-style vector-clock data-race sanitizer.

   Purely observational: the hooks in {!State} and {!Sem} maintain
   happens-before clocks and per-word access shadows on the side, charge
   no simulated cycles, touch no PRNG and add no stats — with the
   sanitizer disabled every run is bit-identical to a build without it
   (GPRS_TSAN=1 opts in).

   Happens-before edges observed:
   - mutex release -> next acquire, through the {!State.set_holder}
     choke point (this also covers condvar wakeups for any program that
     signals while holding the mutex, which all shipped workloads do);
   - fork -> child start, thread exit -> join;
   - barrier episode completion: all parties join through the barrier's
     clock;
   - atomic RMW as a release-acquire on the atomic variable's clock.

   Per-word shadow state is FastTrack's adaptive representation: a write
   epoch (tid, clock), and a read epoch that promotes to a full vector
   clock only while reads are genuinely concurrent. Allocator calls
   clear the shadow of the block so address reuse across threads cannot
   manufacture false positives.

   Accesses made inside a CPR region are exempt (neither checked nor
   recorded): hybrid recovery (§3.5) restores such regions from
   coordinated checkpoints and never selectively squashes them, so the
   race-freedom assumption this sanitizer discharges is not needed
   there — e.g. canneal's nonstd-atomic spin gates intentionally race
   inside their regions. The {!State.env_of} hooks consult the TCB's
   region flag. *)

let enabled_flag =
  ref
    (match Sys.getenv_opt "GPRS_TSAN" with
    | Some "" | Some "0" | None -> false
    | Some _ -> true)

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* --- vector clocks ---------------------------------------------------- *)

type vc = { mutable c : int array }

let vc0 () = { c = [||] }
let get v i = if i < Array.length v.c then v.c.(i) else 0

let grow v n =
  if Array.length v.c < n then begin
    let a = Array.make n 0 in
    Array.blit v.c 0 a 0 (Array.length v.c);
    v.c <- a
  end

let set v i x =
  grow v (i + 1);
  v.c.(i) <- x

let join dst src =
  grow dst (Array.length src.c);
  Array.iteri (fun i x -> if x > dst.c.(i) then dst.c.(i) <- x) src.c

let tick v i = set v i (get v i + 1)

(* epoch (tid, clk) happens-before the clock of thread [u]? *)
let epoch_leq ~clk ~tid v = clk <= get v tid

(* --- reports ---------------------------------------------------------- *)

type kind = Write_write | Read_write | Write_read

let kind_label = function
  | Write_write -> "write-write"
  | Read_write -> "read-write"
  | Write_read -> "write-read"

type report = {
  addr : int;
  kind : kind;
  tid1 : int;  (* prior access *)
  pc1 : int;
  tid2 : int;  (* current access *)
  pc2 : int;
  proc2 : string;
}

let pp_report ppf r =
  Format.fprintf ppf
    "race: %s on word %d: tid %d (pc %d) vs tid %d (%s, pc %d)"
    (kind_label r.kind) r.addr r.tid1 r.pc1 r.tid2 r.proc2 r.pc2

let max_reports = 200

(* --- sanitizer state -------------------------------------------------- *)

type t = {
  mem_words : int;
  mutable threads : vc array;  (* tid -> clock; grows *)
  mutable n_threads : int;
  mutexes : vc array;
  atomics : vc array;
  barriers : vc array;
  (* per-word shadow; tid -1 = none, r_tid -2 = read-shared (see
     [r_shared]) *)
  w_tid : int array;
  w_clk : int array;
  w_pc : int array;
  r_tid : int array;
  r_clk : int array;
  r_pc : int array;
  r_shared : (int, vc) Hashtbl.t;
  seen : (int * int * int * int, unit) Hashtbl.t;  (* report dedup *)
  mutable reports : report list;
  mutable n_reports : int;
  mutable dropped : int;
}

let create ~mem_words ~n_mutexes ~n_atomics ~n_barriers =
  let main = vc0 () in
  set main 0 1;
  {
    mem_words;
    threads = Array.make 16 main;
    n_threads = 1;
    mutexes = Array.init (Stdlib.max 1 n_mutexes) (fun _ -> vc0 ());
    atomics = Array.init (Stdlib.max 1 n_atomics) (fun _ -> vc0 ());
    barriers = Array.init (Stdlib.max 1 n_barriers) (fun _ -> vc0 ());
    w_tid = Array.make mem_words (-1);
    w_clk = Array.make mem_words 0;
    w_pc = Array.make mem_words 0;
    r_tid = Array.make mem_words (-1);
    r_clk = Array.make mem_words 0;
    r_pc = Array.make mem_words 0;
    r_shared = Hashtbl.create 16;
    seen = Hashtbl.create 32;
    reports = [];
    n_reports = 0;
    dropped = 0;
  }

let clock t tid =
  if tid >= t.n_threads then begin
    if tid >= Array.length t.threads then begin
      let a = Array.make (2 * (tid + 1)) (vc0 ()) in
      Array.blit t.threads 0 a 0 t.n_threads;
      for i = t.n_threads to Array.length a - 1 do
        a.(i) <- vc0 ()
      done;
      t.threads <- a
    end
    else
      for i = t.n_threads to tid do
        t.threads.(i) <- vc0 ()
      done;
    t.n_threads <- tid + 1
  end;
  t.threads.(tid)

let report t ~addr ~kind ~tid1 ~pc1 ~tid2 ~pc2 ~proc2 =
  let key = (addr, tid1, tid2, pc2) in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    if t.n_reports >= max_reports then t.dropped <- t.dropped + 1
    else begin
      t.reports <- { addr; kind; tid1; pc1; tid2; pc2; proc2 } :: t.reports;
      t.n_reports <- t.n_reports + 1
    end
  end

let reports t = List.rev t.reports
let dropped t = t.dropped

(* --- sync edges ------------------------------------------------------- *)

let on_acquire t ~tid ~m = join (clock t tid) t.mutexes.(m)

let on_release t ~tid ~m =
  let c = clock t tid in
  join t.mutexes.(m) c;
  tick c tid

let on_atomic t ~tid ~var =
  let c = clock t tid in
  let a = t.atomics.(var) in
  join a c;
  join c a;
  tick c tid

let on_spawn t ~parent ~child =
  let cp = clock t parent in
  let cc = clock t child in
  (* re-fork after a squash replay must stay monotone: join, not copy *)
  join cc cp;
  tick cc child;
  tick cp parent

let on_join t ~joiner ~target = join (clock t joiner) (clock t target)

let on_barrier t ~b ~parties =
  let bc = t.barriers.(b) in
  List.iter (fun tid -> join bc (clock t tid)) parties;
  List.iter
    (fun tid ->
      let c = clock t tid in
      join c bc;
      tick c tid)
    parties

(* --- allocator -------------------------------------------------------- *)

let clear_range t ~addr ~size =
  let lo = Stdlib.max 0 addr and hi = Stdlib.min t.mem_words (addr + size) in
  for a = lo to hi - 1 do
    t.w_tid.(a) <- -1;
    if t.r_tid.(a) = -2 then Hashtbl.remove t.r_shared a;
    t.r_tid.(a) <- -1
  done

let on_alloc t ~addr ~size = clear_range t ~addr ~size
let on_free t ~addr ~size = clear_range t ~addr ~size

(* --- memory accesses (FastTrack) -------------------------------------- *)

let on_write t ~tid ~pc ~proc ~addr =
  if addr >= 0 && addr < t.mem_words then begin
    let c = clock t tid in
    let wt = t.w_tid.(addr) in
    if wt >= 0 && wt <> tid && not (epoch_leq ~clk:t.w_clk.(addr) ~tid:wt c)
    then
      report t ~addr ~kind:Write_write ~tid1:wt ~pc1:t.w_pc.(addr) ~tid2:tid
        ~pc2:pc ~proc2:proc;
    (match t.r_tid.(addr) with
    | -1 -> ()
    | -2 ->
      let rv =
        match Hashtbl.find_opt t.r_shared addr with
        | Some rv -> rv
        | None -> vc0 ()
      in
      Array.iteri
        (fun rt clk ->
          if clk > 0 && rt <> tid && not (epoch_leq ~clk ~tid:rt c) then
            report t ~addr ~kind:Read_write ~tid1:rt ~pc1:t.r_pc.(addr)
              ~tid2:tid ~pc2:pc ~proc2:proc)
        rv.c
    | rt ->
      if rt <> tid && not (epoch_leq ~clk:t.r_clk.(addr) ~tid:rt c) then
        report t ~addr ~kind:Read_write ~tid1:rt ~pc1:t.r_pc.(addr) ~tid2:tid
          ~pc2:pc ~proc2:proc);
    t.w_tid.(addr) <- tid;
    t.w_clk.(addr) <- get c tid;
    t.w_pc.(addr) <- pc;
    if t.r_tid.(addr) = -2 then Hashtbl.remove t.r_shared addr;
    t.r_tid.(addr) <- -1
  end

let on_read t ~tid ~pc ~proc ~addr =
  if addr >= 0 && addr < t.mem_words then begin
    let c = clock t tid in
    let wt = t.w_tid.(addr) in
    if wt >= 0 && wt <> tid && not (epoch_leq ~clk:t.w_clk.(addr) ~tid:wt c)
    then
      report t ~addr ~kind:Write_read ~tid1:wt ~pc1:t.w_pc.(addr) ~tid2:tid
        ~pc2:pc ~proc2:proc;
    (match t.r_tid.(addr) with
    | -2 -> (
      match Hashtbl.find_opt t.r_shared addr with
      | Some rv ->
        set rv tid (get c tid);
        t.r_pc.(addr) <- pc
      | None -> ())
    | rt
      when rt = -1 || rt = tid
           || epoch_leq ~clk:t.r_clk.(addr) ~tid:rt c ->
      t.r_tid.(addr) <- tid;
      t.r_clk.(addr) <- get c tid;
      t.r_pc.(addr) <- pc
    | rt ->
      (* genuinely concurrent readers: promote to a read vector *)
      let rv = vc0 () in
      set rv rt t.r_clk.(addr);
      set rv tid (get c tid);
      Hashtbl.replace t.r_shared addr rv;
      t.r_tid.(addr) <- -2;
      t.r_pc.(addr) <- pc)
  end
