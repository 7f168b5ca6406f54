type 'a cell = {
  mutable time : Time.cycles;
  mutable prio : int;
  mutable seq : int;
  mutable payload : 'a;
  mutable cancelled : bool;
  mutable fired : bool;
  (* Bumped when the cell is recycled; a handle carries the generation it
     was issued for, so a stale handle to a reused cell cannot cancel the
     cell's new occupant. *)
  mutable gen : int;
}

type handle = H : 'a cell * int -> handle

type 'a t = {
  mutable heap : 'a cell array;
  (* Slots >= [size] are stale copies kept only to satisfy the array type. *)
  mutable size : int;
  mutable next_seq : int;
  mutable live : int;
  mutable clock : Time.cycles;
  (* Popped (fired) cells are recycled through a small free list instead
     of re-allocating one record per event. Invisible to pop order: a
     reused cell is fully re-initialized at [schedule]. *)
  recycle : bool;  (* off in reference runs: every schedule allocates *)
  mutable free : 'a cell list;
  mutable n_free : int;
  mutable cells_alloc : int;
  mutable cells_recycled : int;
}

let max_free = 64

let create ?(recycle = true) () =
  {
    recycle;
    heap = [||];
    size = 0;
    next_seq = 0;
    live = 0;
    clock = Time.zero;
    free = [];
    n_free = 0;
    cells_alloc = 0;
    cells_recycled = 0;
  }

let cell_stats q = (q.cells_alloc, q.cells_recycled)

let is_empty q = q.live = 0
let length q = q.live
let now q = q.clock

let precedes a b =
  a.time < b.time
  || (a.time = b.time
      && (a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)))

let swap q i j =
  let tmp = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if precedes q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && precedes q.heap.(l) q.heap.(!smallest) then smallest := l;
  if r < q.size && precedes q.heap.(r) q.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let schedule ?(prio = 0) q ~time payload =
  assert (time >= q.clock);
  let cell =
    match q.free with
    | c :: rest ->
      q.free <- rest;
      q.n_free <- q.n_free - 1;
      q.cells_recycled <- q.cells_recycled + 1;
      c.time <- time;
      c.prio <- prio;
      c.seq <- q.next_seq;
      c.payload <- payload;
      c.cancelled <- false;
      c.fired <- false;
      c
    | [] ->
      q.cells_alloc <- q.cells_alloc + 1;
      {
        time;
        prio;
        seq = q.next_seq;
        payload;
        cancelled = false;
        fired = false;
        gen = 0;
      }
  in
  q.next_seq <- q.next_seq + 1;
  if q.size = Array.length q.heap then begin
    let cap = Stdlib.max 16 (2 * Array.length q.heap) in
    let heap' = Array.make cap cell in
    Array.blit q.heap 0 heap' 0 q.size;
    q.heap <- heap'
  end;
  q.heap.(q.size) <- cell;
  q.size <- q.size + 1;
  q.live <- q.live + 1;
  sift_up q (q.size - 1);
  H (cell, cell.gen)

let heap_size q = q.size

(* Drop every pending event without advancing the clock: the crash model
   loses all scheduled work, but simulated time is the time of the crash,
   not of the latest event that would have fired. Generation stamps are
   bumped so handles to discarded cells can never cancel a later
   occupant of the same slot. *)
let clear q =
  for i = 0 to q.size - 1 do
    let c = q.heap.(i) in
    c.gen <- c.gen + 1;
    c.cancelled <- false
  done;
  q.size <- 0;
  q.live <- 0

(* Rebuild the heap without the cancelled cells (Floyd heapify). Pop
   order is untouched: it is fully determined by the (time, seq) total
   order, not by heap shape. *)
let compact q =
  let n = ref 0 in
  for i = 0 to q.size - 1 do
    let c = q.heap.(i) in
    if not c.cancelled then begin
      q.heap.(!n) <- c;
      incr n
    end
  done;
  q.size <- !n;
  for i = (q.size / 2) - 1 downto 0 do
    sift_down q i
  done

let cancel q (H (cell, gen)) =
  if gen = cell.gen && (not cell.cancelled) && not cell.fired then begin
    cell.cancelled <- true;
    q.live <- q.live - 1;
    (* Long fault-injection sweeps cancel timers far faster than lazy
       deletion at the top drains them; compact once cancelled cells
       outnumber live ones so every sift stays proportional to the live
       population. *)
    if q.size >= 64 && q.size - q.live > q.size / 2 then compact q
  end

let remove_top q =
  let top = q.heap.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.heap.(0) <- q.heap.(q.size);
    sift_down q 0
  end;
  top

let rec pop q =
  if q.size = 0 then None
  else begin
    let top = remove_top q in
    if top.cancelled then pop q
    else begin
      top.fired <- true;
      q.live <- q.live - 1;
      q.clock <- top.time;
      let r = Some (top.time, top.payload) in
      if q.recycle && q.n_free < max_free then begin
        (* Invalidate outstanding handles, then park the record. *)
        top.gen <- top.gen + 1;
        q.free <- top :: q.free;
        q.n_free <- q.n_free + 1
      end;
      r
    end
  end

let rec peek_time q =
  if q.size = 0 then None
  else if q.heap.(0).cancelled then begin
    (* Drop stale entries eagerly so peeking stays amortised O(1). *)
    ignore (remove_top q);
    peek_time q
  end
  else Some q.heap.(0).time
