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
  stable : image option;  (* serialized "stable storage" image, or None *)
}

(* The stable image: its first [len] bytes are the records written so
   far. *)
and image = { mutable bytes : Bytes.t; mutable len : int }

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
    stable = (if stable then Some { bytes = Bytes.create 4096; len = 0 } else None);
  }

let stable_armed t = Option.is_some t.stable

(* --- stable-image record format ---------------------------------------

   One checksummed text line per record, in LSN order:

     O <lsn> <at> <order> <k> <a> <b> <crc>   op record (k: A F T R S I)
     P <lsn> <upto> <crc>                     prune marker (retirement)
     D <lsn> <orders> <crc>                   drop marker (live squash-undo)
     B <lsn> <crc>                            checkpoint begin
     E <lsn> <min_retired> <redo_start> <active> <brk> <free> <used> <crc>

   where <orders>/<active> are comma lists of sub-thread orders (or "-"),
   <free>/<used> are comma lists of addr:size allocator blocks (or "-").
   The crc is FNV-1a 64 of the line up to and excluding " <crc>", in
   lowercase hex with no leading zeros (OCaml's %Lx); a line that fails
   its crc, or a truncated/unparseable line, raises Corrupt. P/D/B/E
   records reuse the current next_lsn without consuming it, so op LSNs
   stay dense and sweep enumeration can target every op boundary.

   Records are written straight into the image bytes and sealed in
   place; parse_image reads them back without building substrings. *)

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

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* FNV-1a 64 of s.[i..j). *)
let fnv s i j =
  let h = ref fnv_offset in
  for k = i to j - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s k)))) fnv_prime
  done;
  !h

(* Hex digits of [h] in %Lx form: unsigned, no leading zeros. *)
let hex_digits h =
  let d = ref 1 in
  while !d < 16 && Int64.shift_right_logical h (4 * !d) <> 0L do
    incr d
  done;
  !d

let hex_char h = "0123456789abcdef".[Int64.to_int (Int64.logand h 15L)]

(* Make room for [n] more bytes. *)
let reserve img n =
  let cap = Bytes.length img.bytes in
  if img.len + n > cap then begin
    let b = Bytes.create (Stdlib.max (img.len + n) (2 * cap)) in
    Bytes.blit img.bytes 0 b 0 img.len;
    img.bytes <- b
  end

let put_char img c =
  reserve img 1;
  Bytes.unsafe_set img.bytes img.len c;
  img.len <- img.len + 1

(* Decimal, with a leading '-' when negative. The digits come from the
   non-positive magnitude, so min_int needs no special case. *)
let put_int img n =
  if n < 0 then put_char img '-';
  let m = if n < 0 then n else -n in
  let d = ref 1 and q = ref (m / 10) in
  while !q <> 0 do
    incr d;
    q := !q / 10
  done;
  reserve img !d;
  let m = ref m in
  for i = img.len + !d - 1 downto img.len do
    Bytes.unsafe_set img.bytes i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  img.len <- img.len + !d

let put_field img n =
  put_char img ' ';
  put_int img n

(* " a,b,c", or " -" for the empty list. *)
let put_list img put = function
  | [] ->
    put_char img ' ';
    put_char img '-'
  | x :: rest ->
    put_char img ' ';
    put img x;
    List.iter
      (fun x ->
        put_char img ',';
        put img x)
      rest

let put_block img (a, s) =
  put_int img a;
  put_char img ':';
  put_int img s

(* Begin a record line with its tag; returns where it starts. *)
let open_line img tag =
  let start = img.len in
  put_char img tag;
  start

(* Close the line begun at [start]: " <crc>\n", the crc over the bytes
   written since [start]. *)
let seal img start =
  let h = fnv (Bytes.unsafe_to_string img.bytes) start img.len in
  let d = hex_digits h in
  reserve img (d + 2);
  Bytes.unsafe_set img.bytes img.len ' ';
  let x = ref h in
  for i = img.len + d downto img.len + 1 do
    Bytes.unsafe_set img.bytes i (hex_char !x);
    x := Int64.shift_right_logical !x 4
  done;
  Bytes.unsafe_set img.bytes (img.len + d + 1) '\n';
  img.len <- img.len + d + 2

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
  (match t.stable with
  | None -> ()
  | Some img ->
    let start = open_line img 'O' and a, b = op_fields op in
    put_field img lsn;
    put_field img at;
    put_field img order;
    put_char img ' ';
    put_char img (kind_char op);
    put_field img a;
    put_field img b;
    seal img start);
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

let squash t ids =
  let es = ref [] and os = ref [] in
  List.iter
    (fun o ->
      if o >= t.lo && o < t.hi then
        match take_bucket t o with
        | [] -> ()
        | b ->
          es := List.rev_append b !es;
          os := o :: !os)
    ids;
  advance_oldest t;
  (* Squash-undo is a durable decision: without a drop marker, cold
     recovery would count the squashed sub-threads' operations a second
     time (their undo already ran in the live engine). *)
  (match t.stable with
  | Some img when !os <> [] ->
    let start = open_line img 'D' in
    put_field img t.next_lsn;
    put_list img put_int (List.rev !os);
    seal img start
  | Some _ | None -> ());
  List.sort (fun a b -> compare b.lsn a.lsn) !es

let prune_below t ~order =
  let n = ref 0 in
  let stop = Stdlib.min order t.hi in
  for o = t.lo to stop - 1 do
    n := !n + List.length (take_bucket t o)
  done;
  if order > t.lo then t.lo <- order;
  advance_oldest t;
  (match t.stable with
  | Some img when !n > 0 ->
    let start = open_line img 'P' in
    put_field img t.next_lsn;
    put_field img order;
    seal img start
  | Some _ | None -> ());
  !n

(* Redo scan start for the next recovery: the oldest LSN still protected
   by a live (volatile) entry. With no live entries nothing older than
   next_lsn can belong to an unretired sub-thread. *)
let redo_start t = t.oldest

(* Split begin/end so the engine can expose the B→E window as two fault
   points: a crash landing between them leaves a B without its E, which
   analysis must treat as "checkpoint did not complete". *)
let log_checkpoint_begin t =
  match t.stable with
  | None -> ()
  | Some img ->
    let start = open_line img 'B' in
    put_field img t.next_lsn;
    seal img start

let log_checkpoint_end t ~min_retired ~active ~brk ~free ~used =
  match t.stable with
  | None -> ()
  | Some img ->
    let start = open_line img 'E' in
    put_field img t.next_lsn;
    put_field img min_retired;
    put_field img (redo_start t);
    put_list img put_int active;
    put_field img brk;
    put_list img put_block free;
    put_list img put_block used;
    seal img start

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
  | Some img ->
    let n = img.len in
    if n >= 2 then begin
      let line_start =
        match Bytes.rindex_from_opt img.bytes (n - 2) '\n' with
        | Some j -> j + 1
        | None -> 0
      in
      img.len <- line_start + Stdlib.max 1 ((n - 1 - line_start) / 2)
    end

let stable_image t = Option.map (fun img -> Bytes.sub_string img.bytes 0 img.len) t.stable

(* --- scanner -----------------------------------------------------------

   One pass over the image. Each line's crc is checked against the text
   in place, then its fields are read as integer ranges of the image: no
   line, field or crc string is built unless the line is refused. The
   refusal messages are those of a split-on-spaces reading: a record
   with the wrong number of fields is "unparseable" whatever else is
   wrong with it. *)

let bad fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* Does the %Lx text of FNV-1a 64 of s.[i..sp) fill s.(sp..stop)? *)
let crc_ok s i sp stop =
  let h = fnv s i sp in
  stop - sp - 1 = hex_digits h
  &&
  let x = ref h and ok = ref true in
  for k = stop - 1 downto sp + 1 do
    if String.unsafe_get s k <> hex_char !x then ok := false;
    x := Int64.shift_right_logical !x 4
  done;
  !ok

(* The line being read: body s.[start..stop), cursor [i]. *)
type line = { s : string; ln : int; start : int; stop : int; mutable i : int }

let arity = function 'O' -> 7 | 'P' | 'D' -> 3 | 'B' -> 2 | 'E' -> 8 | _ -> -1

(* Refuse the line with [msg] — unless its tag or its number of fields is
   wrong, which a reader that splits on spaces finds first: then it is
   "unparseable", whatever else is wrong with it. Callers that hit a
   misplaced space pass an empty [msg]. *)
let refuse l msg =
  let fields = ref 1 in
  for k = l.start to l.stop - 1 do
    if l.s.[k] = ' ' then incr fields
  done;
  let tag_ok = l.stop > l.start + 1 && l.s.[l.start + 1] = ' ' in
  if tag_ok && !fields = arity l.s.[l.start] then raise (Corrupt msg)
  else bad "line %d: unparseable record %S" l.ln (String.sub l.s l.start (l.stop - l.start))

(* First index in [i, l.stop) holding one of the two delimiters, or
   l.stop. *)
let until l i c1 c2 =
  let k = ref i in
  while !k < l.stop && String.unsafe_get l.s !k <> c1 && String.unsafe_get l.s !k <> c2 do
    incr k
  done;
  !k

(* The decimal int s.[i..j): an optional '-' and at least one digit, in
   int range. *)
let int_in l i j =
  let neg = j > i && l.s.[i] = '-' in
  let d0 = if neg then i + 1 else i in
  let acc = ref 0 and ok = ref (j > d0) in
  for k = d0 to j - 1 do
    let d = Char.code (String.unsafe_get l.s k) - 48 in
    if d < 0 || d > 9 || !acc < min_int / 10 || !acc * 10 < min_int + d then ok := false
    else acc := (!acc * 10) - d
  done;
  if not !ok || ((not neg) && !acc = min_int) then
    refuse l (Printf.sprintf "bad int %S" (String.sub l.s i (j - i)));
  if neg then !acc else - !acc

(* Step over the ' ' that opens the next field. *)
let next_field l =
  if l.i >= l.stop || l.s.[l.i] <> ' ' then refuse l "";
  l.i <- l.i + 1

let int_field l =
  next_field l;
  let j = until l l.i ' ' ' ' in
  let v = int_in l l.i j in
  l.i <- j;
  v

(* A comma list field, "-" for the empty list. *)
let list_field l elt =
  next_field l;
  let j = until l l.i ' ' ' ' in
  if j = l.i + 1 && l.s.[l.i] = '-' then begin
    l.i <- j;
    []
  end
  else
    let rec elems acc =
      let k = until l l.i ',' ' ' in
      let acc = elt l l.i k :: acc in
      l.i <- k;
      if k < j then begin
        l.i <- k + 1;
        elems acc
      end
      else List.rev acc
    in
    elems []

let block l i j =
  let c = until l i ':' ':' in
  if c >= j || until l (c + 1) ':' ':' < j then
    refuse l (Printf.sprintf "bad block %S" (String.sub l.s i (j - i)));
  (int_in l i c, int_in l (c + 1) j)

let record l =
  let lsn = int_field l in
  let r =
    match l.s.[l.start] with
    | 'O' ->
      let at = int_field l in
      let order = int_field l in
      next_field l;
      let k = until l l.i ' ' ' ' in
      let kind = if k = l.i + 1 then l.s.[l.i] else '?' in
      let ki = l.i in
      l.i <- k;
      let a = int_field l in
      let b = int_field l in
      let op =
        match kind with
        | 'A' -> Alloc { addr = a; size = b }
        | 'F' -> Free { addr = a; size = b }
        | 'T' -> Thread_create { tid = a }
        | 'R' -> Rol_insert { sub = a }
        | 'S' -> Sched_enqueue { sub = a }
        | 'I' -> Io_op { file = a; words = b }
        | _ ->
          refuse l
            (Printf.sprintf "line %d: unknown op kind %S" l.ln (String.sub l.s ki (k - ki)))
      in
      S_op { at; e = { lsn; order; op } }
    | 'P' -> S_prune { lsn; upto = int_field l }
    | 'D' -> S_drop { lsn; orders = list_field l int_in }
    | 'B' -> S_ckpt_begin { lsn }
    | _ ->
      let min_retired = int_field l in
      let redo_start = int_field l in
      let active = list_field l int_in in
      let brk = int_field l in
      let free = list_field l block in
      let used = list_field l block in
      S_ckpt_end { lsn; min_retired; redo_start; active; brk; free; used }
  in
  if l.i <> l.stop then refuse l "";
  r

let parse_image s =
  let n = String.length s in
  let recs = ref [] in
  let pos = ref 0 and ln = ref 1 in
  while !pos < n do
    let p = !pos in
    let stop = ref p in
    while !stop < n && String.unsafe_get s !stop <> '\n' do
      incr stop
    done;
    let stop = !stop in
    if stop > p then begin
      let sp = ref (stop - 1) in
      while !sp >= p && String.unsafe_get s !sp <> ' ' do
        decr sp
      done;
      let sp = !sp in
      if sp < p then bad "line %d: no checksum" !ln;
      if not (crc_ok s p sp stop) then
        bad "line %d: checksum mismatch (got %s, want %Lx)" !ln
          (String.sub s (sp + 1) (stop - sp - 1))
          (fnv s p sp);
      let l = { s; ln = !ln; start = p; stop = sp; i = p + 1 } in
      if arity s.[p] < 0 || (sp > p + 1 && s.[p + 1] <> ' ') then refuse l "";
      recs := record l :: !recs
    end;
    incr ln;
    pos := stop + 1
  done;
  List.rev !recs

let all t =
  let acc = ref [] in
  for o = t.lo to t.hi - 1 do
    acc := List.rev_append t.buckets.(o land t.mask) !acc
  done;
  List.sort (fun a b -> compare a.lsn b.lsn) !acc
