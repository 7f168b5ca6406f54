type addr = int

(* Dirty tracking is page-granular: a write stamps its page with the
   current epoch, and snapshot images remember the epoch they were last
   synced at, so capture/restore touch only pages stamped since then. *)
let page_bits = 6
let page_words = 1 lsl page_bits

(* The data array covers the words written so far, not the declared
   size: it starts at [initial_words] (or the declared size, if smaller)
   and grows by doubling to cover the highest word written; a word above
   it reads 0. A program declares the heap it may need; a run pays for
   the heap it uses. The start size spares small programs any growth
   copies: every shipped workload but dedup and pbzip2 (which declare
   65,536-word heaps and write a few thousand words) fits in it. *)
let initial_words = 1 lsl 14

type t = {
  words : int;  (* declared size: addresses [0, words) are valid *)
  mutable data : int array;
  mutable static_brk : int;
  (* Free blocks sorted by address; first-fit with splitting. *)
  mutable free_list : (addr * int) list;
  allocated : (addr, int) Hashtbl.t;
  (* Monotone clock for dirty tracking. Bumped by [capture] and
     [restore_image]; never by plain writes. *)
  mutable epoch : int;
  (* Per-page epoch of the last write (or restore) landing in the page;
     0 until the page is first written, so such a page holds zeros. *)
  page_epoch : int array;
  (* Per-word epoch of the last counted first-touch; see [touch]. Only
     the checkpointing engine's undo log touches, so the array is
     allocated at the first [touch] ([[||]] until then), at [data]'s
     start size, and grows like [data] to cover the highest word
     touched. *)
  mutable word_epoch : int array;
}

let n_pages words = (words + page_words - 1) lsr page_bits

let create ~words =
  if words < 0 then invalid_arg "Mem.create: negative size";
  {
    words;
    data = Array.make (Stdlib.min words initial_words) 0;
    static_brk = 0;
    free_list = [ (0, words) ];
    allocated = Hashtbl.create 64;
    epoch = 1;
    page_epoch = Array.make (n_pages words) 0;
    word_epoch = [||];
  }

let words t = t.words

let out_of_range () = invalid_arg "index out of bounds"

(* [arr] grown to cover address [a]: doubled from its length (at least
   [initial_words]) until it does, capped at the declared size.
   Addresses outside [0, words) raise as a flat array's bounds check
   would. *)
let cover t arr a =
  if a < 0 || a >= t.words then out_of_range ();
  let cap = ref (Stdlib.max initial_words (Array.length arr)) in
  while !cap <= a do
    cap := 2 * !cap
  done;
  let grown = Array.make (Stdlib.min !cap t.words) 0 in
  Array.blit arr 0 grown 0 (Array.length arr);
  grown

let read t a =
  if a < Array.length t.data then t.data.(a)
  else if a < t.words then 0
  else out_of_range ()

let write t a v =
  if a >= Array.length t.data then t.data <- cover t t.data a;
  t.data.(a) <- v;
  t.page_epoch.(a lsr page_bits) <- t.epoch

let touch t a =
  if a >= Array.length t.word_epoch then
    t.word_epoch <- cover t t.word_epoch a;
  if t.word_epoch.(a) < t.epoch then begin
    t.word_epoch.(a) <- t.epoch;
    true
  end
  else false

(* An image holds one array per page. A page whose memory page was never
   written is the shared [zero_page] and costs nothing to capture; a
   page gets its own array the first time it is captured written. The
   partial last page is shorter than [zero_page], so copies go by the
   memory page's length, never the array's. *)
type image = {
  pages : int array array;
  (* Epoch the image was last synced at; -1 means never (full copy). *)
  mutable synced_at : int;
}

let zero_page = Array.make page_words 0

let alloc_image t =
  { pages = Array.make (Array.length t.page_epoch) zero_page; synced_at = -1 }

(* Copy every page stamped after [img.synced_at] between memory and the
   image ([to_image] chooses the direction), re-stamping it with the
   current epoch when restoring; returns the number of words synced,
   zero pages included. A never-synced image has [synced_at = -1], so
   every page is due. A stamped page was written or restored, so
   [data] covers it whole (it grows in whole pages, or to the declared
   size); restoring grows [data] over the pages it stamps. *)
let sync_pages t img ~to_image =
  let total = words t in
  let synced = ref 0 in
  for p = 0 to Array.length t.page_epoch - 1 do
    let e = t.page_epoch.(p) in
    if e > img.synced_at then begin
      let off = p lsl page_bits in
      let len = Stdlib.min page_words (total - off) in
      let page = img.pages.(p) in
      if to_image then begin
        (* A never-written page ([e = 0]) is only due in a never-synced
           image, whose pages are all [zero_page] already. *)
        if e = 0 then ()
        else if page == zero_page then img.pages.(p) <- Array.sub t.data off len
        else Array.blit t.data off page 0 len
      end
      else begin
        if off + len > Array.length t.data then
          t.data <- cover t t.data (off + len - 1);
        if page == zero_page then Array.fill t.data off len 0
        else Array.blit page 0 t.data off len;
        t.page_epoch.(p) <- t.epoch
      end;
      synced := !synced + len
    end
  done;
  !synced

let capture t img =
  let copied = sync_pages t img ~to_image:true in
  img.synced_at <- t.epoch;
  t.epoch <- t.epoch + 1;
  copied

let restore_image t img =
  (* Every page written since the image was synced differs (or may
     differ) from the image; copy those back and re-stamp them, so other
     retained images see them as dirty too. *)
  let copied = sync_pages t img ~to_image:false in
  t.epoch <- t.epoch + 1;
  copied

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
