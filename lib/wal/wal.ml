type op =
  | Alloc of { addr : int; size : int }
  | Free of { addr : int; size : int }
  | Thread_create of { tid : int }
  | Rol_insert of { sub : int }
  | Sched_enqueue of { sub : int }
  | Io_op of { file : int; words : int }

type entry = { lsn : int; order : int; op : op }

(* Live entries sit in buckets by order, in an order-indexed growable
   ring like [Gprs.Rol]: orders are sub-thread ids, dense and increasing,
   so every live order lies in [lo, hi) (empty when [lo >= hi]) and its
   bucket is slot [order land mask]; slots outside the span are empty.
   A bucket lists its entries newest first. Retirement prunes a prefix
   of orders, so it touches only the buckets it empties.

   [alive] marks live LSNs in a second ring over [oldest, next_lsn): LSNs
   are dense, and after each prune or drop [oldest] advances past the
   dead ones, each once, so it is always the oldest live LSN (the redo
   start) or [next_lsn]. *)
type t = {
  mutable buckets : entry list array;  (* length is a power of two *)
  mutable mask : int;
  mutable lo : int;
  mutable hi : int;
  mutable alive : Bytes.t;  (* length is a power of two *)
  mutable oldest : int;  (* no live entry has lsn < oldest *)
  mutable next_lsn : int;
  mutable live : int;
  mutable hw : int;
  stable : Buffer.t option;  (* serialized "stable storage" image, or None *)
}

let initial_capacity = 256

let create ?(stable = false) () =
  {
    buckets = Array.make initial_capacity [];
    mask = initial_capacity - 1;
    lo = 0;
    hi = 0;
    alive = Bytes.make initial_capacity '\000';
    oldest = 0;
    next_lsn = 0;
    live = 0;
    hw = 0;
    stable = (if stable then Some (Buffer.create 4096) else None);
  }

let stable_armed t = Option.is_some t.stable

(* --- stable-image record format ---------------------------------------

   One checksummed text line per record, in LSN order:

     O <lsn> <at> <order> <k> <a> <b> <crc>   op record (k: A F T R S I)
     P <lsn> <upto> <crc>                     prune marker (retirement)
     B <lsn> <crc>                            checkpoint begin
     E <lsn> <min_retired> <redo_start> <active> <brk> <free> <used> <crc>

   where <active> is a comma list of live sub-thread orders (or "-"),
   <free>/<used> are comma lists of addr:size allocator blocks (or "-").
   The crc is FNV-1a 64 of the line up to and excluding " <crc>"; a line
   that fails its crc, or a truncated/unparseable line, raises Corrupt.
   P/B/E records reuse the current next_lsn without consuming it, so op
   LSNs stay dense and sweep enumeration can target every op boundary. *)

exception Corrupt of string

type srec =
  | S_op of { at : int; e : entry }
  | S_prune of { lsn : int; upto : int }
  | S_drop of { lsn : int; orders : int list }
  | S_ckpt_begin of { lsn : int }
  | S_ckpt_end of {
      lsn : int;
      min_retired : int;
      redo_start : int;
      active : int list;
      brk : int;
      free : (int * int) list;
      used : (int * int) list;
    }

let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let emit t line =
  match t.stable with
  | None -> ()
  | Some buf ->
    Buffer.add_string buf line;
    Buffer.add_string buf (Printf.sprintf " %Lx\n" (fnv1a line))

let kind_char = function
  | Alloc _ -> 'A'
  | Free _ -> 'F'
  | Thread_create _ -> 'T'
  | Rol_insert _ -> 'R'
  | Sched_enqueue _ -> 'S'
  | Io_op _ -> 'I'

let op_fields = function
  | Alloc { addr; size } | Free { addr; size } -> (addr, size)
  | Thread_create { tid } -> (tid, 0)
  | Rol_insert { sub } | Sched_enqueue { sub } -> (sub, 0)
  | Io_op { file; words } -> (file, words)

let pow2_at_least n =
  let c = ref 1 in
  while !c < n do
    c := 2 * !c
  done;
  !c

(* Widen the order span to include [order], re-slotting the live buckets
   when the span outgrows the ring. *)
let cover t order =
  let lo, hi =
    if t.lo >= t.hi then (order, order + 1)
    else (Stdlib.min t.lo order, Stdlib.max t.hi (order + 1))
  in
  if hi - lo > Array.length t.buckets then begin
    let cap = pow2_at_least (2 * (hi - lo)) in
    let buckets = Array.make cap [] in
    for o = t.lo to t.hi - 1 do
      buckets.(o land (cap - 1)) <- t.buckets.(o land t.mask)
    done;
    t.buckets <- buckets;
    t.mask <- cap - 1
  end;
  t.lo <- lo;
  t.hi <- hi

let is_alive t lsn =
  Bytes.get t.alive (lsn land (Bytes.length t.alive - 1)) <> '\000'

let set_alive t lsn v =
  Bytes.set t.alive
    (lsn land (Bytes.length t.alive - 1))
    (if v then '\001' else '\000')

let advance_oldest t =
  while t.oldest < t.next_lsn && not (is_alive t t.oldest) do
    t.oldest <- t.oldest + 1
  done

(* Make room for [lsn] in the LSN ring. *)
let reserve_lsn t lsn =
  let cap = Bytes.length t.alive in
  if lsn - t.oldest >= cap then begin
    let cap' = pow2_at_least (2 * (lsn + 1 - t.oldest)) in
    let alive = Bytes.make cap' '\000' in
    for l = t.oldest to lsn - 1 do
      if Bytes.get t.alive (l land (cap - 1)) <> '\000' then
        Bytes.set alive (l land (cap' - 1)) '\001'
    done;
    t.alive <- alive
  end

let append t ?(at = 0) ~order op =
  let lsn = t.next_lsn in
  reserve_lsn t lsn;
  t.next_lsn <- lsn + 1;
  cover t order;
  let i = order land t.mask in
  t.buckets.(i) <- { lsn; order; op } :: t.buckets.(i);
  set_alive t lsn true;
  t.live <- t.live + 1;
  if t.live > t.hw then t.hw <- t.live;
  if stable_armed t then begin
    let a, b = op_fields op in
    emit t (Printf.sprintf "O %d %d %d %c %d %d" lsn at order (kind_char op) a b)
  end;
  lsn

let size t = t.live
let high_water t = t.hw

(* Empty one bucket; returns its entries (newest first). *)
let take_bucket t order =
  let i = order land t.mask in
  let es = t.buckets.(i) in
  if es <> [] then begin
    t.buckets.(i) <- [];
    List.iter
      (fun e ->
        set_alive t e.lsn false;
        t.live <- t.live - 1)
      es
  end;
  es

let by_lsn_desc a b = compare b.lsn a.lsn

let entries_for t ~orders =
  let acc = ref [] in
  for o = t.lo to t.hi - 1 do
    if orders o then acc := List.rev_append t.buckets.(o land t.mask) !acc
  done;
  List.sort by_lsn_desc !acc

let drop_for t ~orders =
  let n = ref 0 and os = ref [] in
  for o = t.hi - 1 downto t.lo do
    if orders o then begin
      let k = List.length (take_bucket t o) in
      if k > 0 then begin
        n := !n + k;
        os := o :: !os
      end
    end
  done;
  advance_oldest t;
  (* Squash-undo is a durable decision: without a drop marker, cold
     recovery would count the squashed sub-threads' operations a second
     time (their undo already ran in the live engine). *)
  if !n > 0 && t.stable <> None then
    emit t
      (Printf.sprintf "D %d %s" t.next_lsn
         (String.concat "," (List.map string_of_int !os)));
  !n

let prune_below t ~order =
  let n = ref 0 in
  let stop = Stdlib.min order t.hi in
  for o = t.lo to stop - 1 do
    n := !n + List.length (take_bucket t o)
  done;
  if order > t.lo then t.lo <- order;
  advance_oldest t;
  if !n > 0 && stable_armed t then
    emit t (Printf.sprintf "P %d %d" t.next_lsn order);
  !n

(* Redo scan start for the next recovery: the oldest LSN still protected
   by a live (volatile) entry. With no live entries nothing older than
   next_lsn can belong to an unretired sub-thread. *)
let redo_start t = t.oldest

(* Split begin/end so the engine can expose the B→E window as two fault
   points: a crash landing between them leaves a B without its E, which
   analysis must treat as "checkpoint did not complete". *)
let log_checkpoint_begin t =
  if t.stable <> None then emit t (Printf.sprintf "B %d" t.next_lsn)

let log_checkpoint_end t ~min_retired ~active ~brk ~free ~used =
  if t.stable <> None then begin
    let lsn = t.next_lsn in
    let ints l = if l = [] then "-" else String.concat "," (List.map string_of_int l) in
    let blocks l =
      if l = [] then "-"
      else String.concat "," (List.map (fun (a, s) -> Printf.sprintf "%d:%d" a s) l)
    in
    emit t
      (Printf.sprintf "E %d %d %d %s %d %s %s" lsn min_retired (redo_start t)
         (ints active) brk (blocks free) (blocks used))
  end

let log_checkpoint t ~min_retired ~active ~brk ~free ~used =
  log_checkpoint_begin t;
  log_checkpoint_end t ~min_retired ~active ~brk ~free ~used

(* Torn-write injection: cut the stable image mid-way through its final
   record, the on-disk shape of a write that lost power half-done. At
   least one byte of the final line survives, so the cut never lands on
   a record boundary — parse_image must see it and refuse. *)
let tear_stable t =
  match t.stable with
  | None -> ()
  | Some buf ->
    let s = Buffer.contents buf in
    let n = String.length s in
    if n >= 2 then begin
      let line_start =
        match String.rindex_from_opt s (n - 2) '\n' with
        | Some j -> j + 1
        | None -> 0
      in
      let keep = line_start + Stdlib.max 1 ((n - 1 - line_start) / 2) in
      let torn = String.sub s 0 keep in
      Buffer.clear buf;
      Buffer.add_string buf torn
    end

let stable_image t = Option.map Buffer.contents t.stable

let parse_image image =
  let bad fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt in
  let int s = match int_of_string_opt s with Some v -> v | None -> bad "bad int %S" s in
  let ints = function
    | "-" -> []
    | s -> List.map int (String.split_on_char ',' s)
  in
  let blocks = function
    | "-" -> []
    | s ->
      List.map
        (fun tok ->
          match String.split_on_char ':' tok with
          | [ a; sz ] -> (int a, int sz)
          | _ -> bad "bad block %S" tok)
        (String.split_on_char ',' s)
  in
  let parse_line ln line =
    match String.rindex_opt line ' ' with
    | None -> bad "line %d: no checksum" ln
    | Some i ->
      let body = String.sub line 0 i in
      let crc = String.sub line (i + 1) (String.length line - i - 1) in
      let want = Printf.sprintf "%Lx" (fnv1a body) in
      if not (String.equal crc want) then
        bad "line %d: checksum mismatch (got %s, want %s)" ln crc want;
      (match String.split_on_char ' ' body with
      | [ "O"; lsn; at; order; k; a; b ] ->
        let a = int a and b = int b in
        let op =
          match k with
          | "A" -> Alloc { addr = a; size = b }
          | "F" -> Free { addr = a; size = b }
          | "T" -> Thread_create { tid = a }
          | "R" -> Rol_insert { sub = a }
          | "S" -> Sched_enqueue { sub = a }
          | "I" -> Io_op { file = a; words = b }
          | _ -> bad "line %d: unknown op kind %S" ln k
        in
        S_op { at = int at; e = { lsn = int lsn; order = int order; op } }
      | [ "P"; lsn; upto ] -> S_prune { lsn = int lsn; upto = int upto }
      | [ "D"; lsn; os ] -> S_drop { lsn = int lsn; orders = ints os }
      | [ "B"; lsn ] -> S_ckpt_begin { lsn = int lsn }
      | [ "E"; lsn; min_retired; redo_start; active; brk; free; used ] ->
        S_ckpt_end
          {
            lsn = int lsn;
            min_retired = int min_retired;
            redo_start = int redo_start;
            active = ints active;
            brk = int brk;
            free = blocks free;
            used = blocks used;
          }
      | _ -> bad "line %d: unparseable record %S" ln body)
  in
  let recs = ref [] in
  let n = String.length image in
  let pos = ref 0 and ln = ref 1 in
  while !pos < n do
    let stop = match String.index_from_opt image !pos '\n' with Some j -> j | None -> n in
    let line = String.sub image !pos (stop - !pos) in
    if line <> "" then recs := parse_line !ln line :: !recs;
    incr ln;
    pos := stop + 1
  done;
  List.rev !recs

let all t = List.rev (entries_for t ~orders:(fun _ -> true))
