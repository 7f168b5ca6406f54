type key =
  | K_mem of int
  | K_atomic of int
  | K_file of int * int
  | K_file_len of int

(* Keys are int-encoded with the kind in the low 2 bits. A file word
   packs the file id into [file_bits] bits under its offset; ids outside
   [0, 2^file_bits) and offsets outside the remaining signed width are
   refused rather than allowed to alias another key. *)
let file_bits = 20
let max_file = (1 lsl file_bits) - 1
let off_bits = Sys.int_size - 2 - file_bits

let encode = function
  | K_mem a -> a lsl 2
  | K_atomic v -> (v lsl 2) lor 1
  | K_file (f, off) ->
    let top = off asr (off_bits - 1) in
    if f < 0 || f > max_file || (top <> 0 && top <> -1) then
      invalid_arg "Undo_log: file key out of range";
    (((off lsl file_bits) lor f) lsl 2) lor 2
  | K_file_len f -> (f lsl 2) lor 3

let decode code =
  match code land 3 with
  | 0 -> K_mem (code asr 2)
  | 1 -> K_atomic (code asr 2)
  | 2 -> K_file ((code lsr 2) land max_file, code asr (2 + file_bits))
  | _ -> K_file_len (code asr 2)

type t = {
  (* Open-addressed set of the encoded keys noted in the open epoch: slot
     [i] is occupied iff [stamps.(i) = gen], so opening an epoch is one
     increment. Linear probing, kept at most half full ([set_count]
     keys). Allocated at the first entry, so a paged log that only ever
     sees memory keys allocates none of it. *)
  mutable set_keys : int array;
  mutable stamps : int array;
  mutable gen : int;
  mutable shift : int;  (* Sys.int_size - log2 (Array.length set_keys) *)
  mutable set_count : int;
  (* (key, pre-image) pairs, oldest first. Live entries sit at indices
     [lo, n); index [i] holds absolute position [base + i]. *)
  mutable codes : int array;
  mutable olds : int array;
  mutable base : int;
  mutable lo : int;
  mutable n : int;
  (* When [paged] is set, memory keys are not materialized as entries:
     first-writes are detected through the memory's per-word dirty epoch
     and only counted, with the data itself restored page-wise by the
     owner through [Vm.Mem.restore_image]. Non-memory keys always take
     the entry path. *)
  paged : Vm.Mem.t option;
  mutable mem_touches : int;
}

let create ?paged () =
  {
    set_keys = [||];
    stamps = [||];
    gen = 1;
    shift = Sys.int_size;
    set_count = 0;
    codes = [||];
    olds = [||];
    base = 0;
    lo = 0;
    n = 0;
    paged;
    mem_touches = 0;
  }

(* Fibonacci hashing: the top bits of the product, so consecutive
   addresses spread over the table. *)
let slot t code = (code * 0x278DDE6E5FD29E0B) lsr t.shift

let rec probe t code i =
  if t.stamps.(i) <> t.gen then i
  else if t.set_keys.(i) = code then -1
  else probe t code ((i + 1) land (Array.length t.set_keys - 1))

let insert t code i =
  t.set_keys.(i) <- code;
  t.stamps.(i) <- t.gen

(* Double the set and rehash the open epoch's keys from the old table
   (not from the entries: a dropped prefix may hold some of them). *)
let grow_set t =
  let old_keys = t.set_keys and old_stamps = t.stamps and gen = t.gen in
  let size = Stdlib.max 16 (2 * Array.length old_keys) in
  t.set_keys <- Array.make size 0;
  t.stamps <- Array.make size 0;
  t.shift <- t.shift - (if Array.length old_keys = 0 then 4 else 1);
  for i = 0 to Array.length old_keys - 1 do
    if old_stamps.(i) = gen then begin
      let c = old_keys.(i) in
      insert t c (probe t c (slot t c))
    end
  done

(* Make room for one entry at index [n]: slide the live entries down
   when the dropped prefix frees at least half the arrays, else double
   them. *)
let make_room t =
  let cap = Array.length t.codes and live = t.n - t.lo in
  if t.lo > 0 && 2 * live <= cap then begin
    Array.blit t.codes t.lo t.codes 0 live;
    Array.blit t.olds t.lo t.olds 0 live
  end
  else begin
    let cap = Stdlib.max 8 (2 * cap) in
    let codes = Array.make cap 0 and olds = Array.make cap 0 in
    Array.blit t.codes t.lo codes 0 live;
    Array.blit t.olds t.lo olds 0 live;
    t.codes <- codes;
    t.olds <- olds
  end;
  t.base <- t.base + t.lo;
  t.lo <- 0;
  t.n <- live

let note_entry t key ~old =
  let code = encode key in
  if 2 * (t.set_count + 1) > Array.length t.set_keys then grow_set t;
  let i = probe t code (slot t code) in
  if i < 0 then false
  else begin
    insert t code i;
    t.set_count <- t.set_count + 1;
    if t.n = Array.length t.codes then make_room t;
    t.codes.(t.n) <- code;
    t.olds.(t.n) <- old;
    t.n <- t.n + 1;
    true
  end

let note t key ~old =
  match t.paged, key with
  | Some mem, K_mem a ->
    if Vm.Mem.touch mem a then begin
      t.mem_touches <- t.mem_touches + 1;
      true
    end
    else false
  | _ -> note_entry t key ~old

let open_epoch t =
  t.gen <- t.gen + 1;
  t.set_count <- 0

let position t = t.base + t.n

let mark t =
  open_epoch t;
  position t

(* O(1): bumping the generation empties the set; the arrays keep their
   capacity, so a recycled log does not re-pay its growth. *)
let reset t =
  open_epoch t;
  t.base <- t.base + t.n;
  t.lo <- 0;
  t.n <- 0;
  t.mem_touches <- 0

let size t = t.mem_touches + (t.n - t.lo)
let is_empty t = t.mem_touches = 0 && t.n = t.lo

let check_pos t fn pos =
  if pos < t.base + t.lo || pos > position t then
    invalid_arg (Printf.sprintf "Undo_log.%s: position %d outside the log" fn pos)

let replay_from ~mem ~atomics ~io t ~from =
  check_pos t "replay_from" from;
  let stop = from - t.base in
  let undone = t.n - stop in
  (* Newest first, so the oldest pre-image of a location lands last. *)
  for j = t.n - 1 downto stop do
    let old = t.olds.(j) in
    match decode t.codes.(j) with
    | K_mem a -> Vm.Mem.write mem a old
    | K_atomic v -> atomics.(v) <- old
    | K_file (f, off) -> Vm.Io.write io f ~off old
    | K_file_len f -> Vm.Io.truncate io f old
  done;
  t.n <- stop;
  open_epoch t;
  undone

let replay ~mem ~atomics ~io t =
  let touches = t.mem_touches in
  let undone = replay_from ~mem ~atomics ~io t ~from:(t.base + t.lo) in
  reset t;
  touches + undone

let drop_before t pos =
  check_pos t "drop_before" pos;
  t.lo <- pos - t.base

let keys t = List.init (t.n - t.lo) (fun j -> decode t.codes.(t.n - 1 - j))
