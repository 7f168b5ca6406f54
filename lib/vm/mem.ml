type addr = int

(* Dirty tracking is page-granular: a write stamps its page with the
   current epoch, and snapshot images remember the epoch they were last
   synced at, so capture/restore touch only pages stamped since then. *)
let page_bits = 6
let page_words = 1 lsl page_bits

type t = {
  mutable data : int array;
  mutable static_brk : int;
  (* Free blocks sorted by address; first-fit with splitting. *)
  mutable free_list : (addr * int) list;
  allocated : (addr, int) Hashtbl.t;
  (* Monotone clock for dirty tracking. Bumped by [capture] and
     [restore_image]; never by plain writes. *)
  mutable epoch : int;
  (* Per-page epoch of the last write (or restore) landing in the page. *)
  mutable page_epoch : int array;
  (* Per-word epoch of the last counted first-touch; see [touch]. *)
  mutable word_epoch : int array;
  (* Dirty-page journal: each page stamped in an epoch is appended once
     (the [page_epoch] comparison in [write] dedupes within the epoch),
     so capture/restore walk exactly the pages written since an image's
     sync instead of scanning every page. [ep_start.(e - ep_base)] is the
     journal length when epoch [e] began; entries are complete for epochs
     >= [ep_base] (the journal resets when it outgrows the page table, at
     which point older images fall back to the full page scan). *)
  mutable dirty_log : int array;
  mutable dirty_len : int;
  mutable ep_start : int array;
  mutable ep_len : int;
  mutable ep_base : int;
  (* Generation-stamped scratch for deduping a journal walk that spans
     several epochs (a page may appear once per epoch). *)
  mutable mark : int array;
  mutable mark_gen : int;
}

let n_pages words = (words + page_words - 1) lsr page_bits

let create ~words =
  {
    data = Array.make words 0;
    static_brk = 0;
    free_list = [ (0, words) ];
    allocated = Hashtbl.create 64;
    epoch = 1;
    page_epoch = Array.make (n_pages words) 0;
    word_epoch = Array.make words 0;
    dirty_log = [||];
    dirty_len = 0;
    ep_start = [| 0 |];
    ep_len = 1;
    ep_base = 1;
    mark = Array.make (n_pages words) 0;
    mark_gen = 0;
  }

let words t = Array.length t.data

let read t a = t.data.(a)

let log_push t p =
  if t.dirty_len = Array.length t.dirty_log then begin
    let n = Stdlib.max 64 (2 * t.dirty_len) in
    let a = Array.make n 0 in
    Array.blit t.dirty_log 0 a 0 t.dirty_len;
    t.dirty_log <- a
  end;
  t.dirty_log.(t.dirty_len) <- p;
  t.dirty_len <- t.dirty_len + 1

let write t a v =
  t.data.(a) <- v;
  let p = a lsr page_bits in
  if t.page_epoch.(p) <> t.epoch then begin
    t.page_epoch.(p) <- t.epoch;
    log_push t p
  end

let push_ep_start t v =
  if t.ep_len = Array.length t.ep_start then begin
    let n = Stdlib.max 8 (2 * t.ep_len) in
    let a = Array.make n 0 in
    Array.blit t.ep_start 0 a 0 t.ep_len;
    t.ep_start <- a
  end;
  t.ep_start.(t.ep_len) <- v;
  t.ep_len <- t.ep_len + 1

(* Reset when the journal outgrows the page table by this factor: at that
   density the full page scan is cheaper anyway, and the log stays
   bounded on long runs with many retained epochs. *)
let journal_overflow_factor = 4

let advance_epoch t =
  t.epoch <- t.epoch + 1;
  if t.dirty_len > journal_overflow_factor * Array.length t.page_epoch then begin
    t.dirty_len <- 0;
    t.ep_base <- t.epoch;
    t.ep_len <- 0;
    push_ep_start t 0
  end
  else push_ep_start t t.dirty_len

let touch t a =
  if t.word_epoch.(a) < t.epoch then begin
    t.word_epoch.(a) <- t.epoch;
    true
  end
  else false

type image = {
  img_data : int array;
  (* Epoch the image was last synced at; -1 means never (full copy). *)
  mutable synced_at : int;
}

let alloc_image t = { img_data = Array.make (words t) 0; synced_at = -1 }

let blit_pages ~src ~dst ~page_epoch ~since ~total =
  let np = n_pages total in
  let copied = ref 0 in
  for p = 0 to np - 1 do
    if page_epoch.(p) > since then begin
      let off = p lsl page_bits in
      let len = min page_words (total - off) in
      Array.blit src off dst off len;
      copied := !copied + len
    end
  done;
  !copied

(* Walk the deduped journal entries logged since epoch [since + 1],
   applying [f] to each distinct page. Caller must have checked
   [since + 1 >= t.ep_base]. The walk is bounded to the entries present
   when it started, so [f] may append new entries (restore re-logs). *)
let iter_dirty_since t ~since f =
  let start = t.ep_start.(since + 1 - t.ep_base) in
  let stop = t.dirty_len in
  t.mark_gen <- t.mark_gen + 1;
  let gen = t.mark_gen in
  for i = start to stop - 1 do
    let p = t.dirty_log.(i) in
    if t.mark.(p) <> gen then begin
      t.mark.(p) <- gen;
      f p
    end
  done

let capture t img =
  let total = words t in
  let copied =
    if img.synced_at < 0 then begin
      (* Never synced: every page is due — one whole-array blit. *)
      Array.blit t.data 0 img.img_data 0 total;
      total
    end
    else if img.synced_at + 1 >= t.ep_base then begin
      (* The journal covers every epoch since the sync: copy exactly the
         pages written since, no page-table scan. The deduped entry set
         equals {p | page_epoch.(p) > synced_at} — every stamp since the
         sync was logged, and every logged page was stamped — so the
         copied-word count (checkpoint-cost stats) is bit-identical to
         the scan's. *)
      let copied = ref 0 in
      iter_dirty_since t ~since:img.synced_at (fun p ->
          let off = p lsl page_bits in
          let len = min page_words (total - off) in
          Array.blit t.data off img.img_data off len;
          copied := !copied + len);
      !copied
    end
    else
      blit_pages ~src:t.data ~dst:img.img_data ~page_epoch:t.page_epoch
        ~since:img.synced_at ~total
  in
  img.synced_at <- t.epoch;
  advance_epoch t;
  copied

let restore_image t img =
  (* Every page written since the image was synced differs (or may
     differ) from the image; copy those back and re-stamp them (and
     re-log them, so later journal walks of other retained images see
     them as dirty too). *)
  let total = words t in
  let copied = ref 0 in
  let restore_page p =
    let off = p lsl page_bits in
    let len = min page_words (total - off) in
    Array.blit img.img_data off t.data off len;
    if t.page_epoch.(p) <> t.epoch then begin
      t.page_epoch.(p) <- t.epoch;
      log_push t p
    end;
    copied := !copied + len
  in
  if img.synced_at >= 0 && img.synced_at + 1 >= t.ep_base then
    iter_dirty_since t ~since:img.synced_at restore_page
  else begin
    let np = n_pages total in
    for p = 0 to np - 1 do
      if t.page_epoch.(p) > img.synced_at then restore_page p
    done
  end;
  advance_epoch t;
  !copied

let take_front t n =
  (* Shrink the lowest free block; used by [reserve] so static data sits at
     the bottom of memory. *)
  match t.free_list with
  | (a, sz) :: rest when a = t.static_brk && sz >= n ->
    t.free_list <- (if sz = n then rest else (a + n, sz - n) :: rest);
    t.static_brk <- t.static_brk + n;
    a
  | _ -> failwith "Mem.reserve: static area exhausted"

let reserve t n =
  if n <= 0 then invalid_arg "Mem.reserve: size must be positive";
  take_front t n

let alloc t n =
  if n <= 0 then invalid_arg "Mem.alloc: size must be positive";
  let rec fit acc = function
    | [] -> failwith "Mem.alloc: out of simulated memory"
    | (a, sz) :: rest when sz >= n ->
      let remainder = if sz = n then rest else (a + n, sz - n) :: rest in
      t.free_list <- List.rev_append acc remainder;
      Hashtbl.replace t.allocated a n;
      a
    | blk :: rest -> fit (blk :: acc) rest
  in
  fit [] t.free_list

let insert_free t a n =
  (* Coalesce with the left and right neighbors when adjacent, so the
     free list stays compact under churn instead of fragmenting. *)
  let merge_right (b, sz) = function
    | (c, cz) :: rest when b + sz = c -> (b, sz + cz) :: rest
    | rest -> (b, sz) :: rest
  in
  let rec go = function
    | (b, sz) :: rest when b + sz < a -> (b, sz) :: go rest
    | (b, sz) :: rest when b + sz = a -> merge_right (b, sz + n) rest
    | rest -> merge_right (a, n) rest
  in
  t.free_list <- go t.free_list

let free t a =
  match Hashtbl.find_opt t.allocated a with
  | None -> invalid_arg "Mem.free: not an allocated block"
  | Some n ->
    Hashtbl.remove t.allocated a;
    insert_free t a n

let block_size t a = Hashtbl.find_opt t.allocated a

let undo_alloc t a = free t a

let undo_free t a ~size =
  (* The freed block may have been coalesced into a larger free block;
     carve [a, a+size) back out of whichever block contains it. *)
  let rec go = function
    | [] -> invalid_arg "Mem.undo_free: block not free"
    | (b, sz) :: rest when b <= a && a + size <= b + sz ->
      let right =
        if a + size < b + sz then (a + size, b + sz - (a + size)) :: rest
        else rest
      in
      if a > b then (b, a - b) :: right else right
    | blk :: rest -> blk :: go rest
  in
  t.free_list <- go t.free_list;
  Hashtbl.replace t.allocated a size

(* Positional, idempotent replay of a logged Alloc: carve exactly
   [a, a+size) out of the free list (ARIES conditional redo — a no-op when
   the block is already live, e.g. its effect predates the checkpoint the
   redo scan started from). First-fit placement is deterministic, so
   replaying the logged address reconstructs the crash-time free list
   exactly; [static_brk] only moves at boot-time [reserve] and is restored
   from the checkpoint record. *)
let redo_alloc t a ~size =
  if not (Hashtbl.mem t.allocated a) then undo_free t a ~size

let live_blocks t =
  Hashtbl.fold (fun a n acc -> (a, n) :: acc) t.allocated []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Concrete allocator pieces, for the WAL checkpoint record: both lists
   address-sorted so the serialized form is canonical. *)
let alloc_parts t = (t.static_brk, t.free_list, live_blocks t)

let restore_alloc_parts t ~brk ~free ~used =
  t.static_brk <- brk;
  t.free_list <- free;
  Hashtbl.reset t.allocated;
  List.iter (fun (a, n) -> Hashtbl.replace t.allocated a n) used

type alloc_state = {
  a_static_brk : int;
  a_free_list : (addr * int) list;
  a_allocated : (addr * int) list;
}

let save_alloc t =
  {
    a_static_brk = t.static_brk;
    a_free_list = t.free_list;
    a_allocated = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.allocated [];
  }

let restore_alloc t s =
  t.static_brk <- s.a_static_brk;
  t.free_list <- s.a_free_list;
  Hashtbl.reset t.allocated;
  List.iter (fun (k, v) -> Hashtbl.replace t.allocated k v) s.a_allocated

let snapshot t =
  {
    data = Array.copy t.data;
    static_brk = t.static_brk;
    free_list = t.free_list;
    allocated = Hashtbl.copy t.allocated;
    epoch = t.epoch;
    page_epoch = Array.copy t.page_epoch;
    word_epoch = Array.copy t.word_epoch;
    dirty_log = Array.copy t.dirty_log;
    dirty_len = t.dirty_len;
    ep_start = Array.copy t.ep_start;
    ep_len = t.ep_len;
    ep_base = t.ep_base;
    mark = Array.make (Array.length t.page_epoch) 0;
    mark_gen = 0;
  }

let restore t ~from =
  if Array.length t.data = Array.length from.data then
    Array.blit from.data 0 t.data 0 (Array.length t.data)
  else t.data <- Array.copy from.data;
  t.static_brk <- from.static_brk;
  t.free_list <- from.free_list;
  Hashtbl.reset t.allocated;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.allocated k v) from.allocated;
  (* Every page may now differ from any retained image: stamp them all
     dirty at the current epoch, then advance it. Too many pages to
     journal — reset the log, so pre-restore images fall back to the
     full page scan (their pages all read as dirty anyway). *)
  if Array.length t.page_epoch <> n_pages (Array.length from.data) then
    t.page_epoch <- Array.make (n_pages (Array.length from.data)) 0;
  if Array.length t.word_epoch <> Array.length from.data then
    t.word_epoch <- Array.make (Array.length from.data) 0;
  if Array.length t.mark <> Array.length t.page_epoch then
    t.mark <- Array.make (Array.length t.page_epoch) 0;
  Array.fill t.page_epoch 0 (Array.length t.page_epoch) t.epoch;
  t.epoch <- t.epoch + 1;
  t.dirty_len <- 0;
  t.ep_base <- t.epoch;
  t.ep_len <- 0;
  push_ep_start t 0
