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
  (* Open-addressed set of the encoded keys noted in this epoch: slot [i]
     is occupied iff [stamps.(i) = gen], so [reset] is one increment.
     Linear probing, kept at most half full. Allocated at the first
     entry, so a paged log that only ever sees memory keys allocates
     none of it. *)
  mutable set_keys : int array;
  mutable stamps : int array;
  mutable gen : int;
  mutable shift : int;  (* Sys.int_size - log2 (Array.length set_keys) *)
  (* (key, pre-image) pairs, oldest first; [n] in use. *)
  mutable codes : int array;
  mutable olds : int array;
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
    codes = [||];
    olds = [||];
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

(* Double the entry arrays and rebuild the set at twice their size: it
   holds exactly the [n] entry keys, so it stays at most half full. *)
let grow t =
  let cap = Stdlib.max 8 (2 * Array.length t.codes) in
  let codes = Array.make cap 0 and olds = Array.make cap 0 in
  Array.blit t.codes 0 codes 0 t.n;
  Array.blit t.olds 0 olds 0 t.n;
  t.codes <- codes;
  t.olds <- olds;
  t.set_keys <- Array.make (2 * cap) 0;
  t.stamps <- Array.make (2 * cap) 0;
  let bits = ref 0 in
  while 1 lsl !bits < 2 * cap do
    incr bits
  done;
  t.shift <- Sys.int_size - !bits;
  for j = 0 to t.n - 1 do
    let c = codes.(j) in
    insert t c (probe t c (slot t c))
  done

let note_entry t key ~old =
  let code = encode key in
  if t.n = Array.length t.codes then grow t;
  let i = probe t code (slot t code) in
  if i < 0 then false
  else begin
    insert t code i;
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

(* O(1): bumping the generation empties the set; the arrays keep their
   capacity, so a recycled log does not re-pay its growth. *)
let reset t =
  t.gen <- t.gen + 1;
  t.n <- 0;
  t.mem_touches <- 0

let size t = t.mem_touches + t.n
let is_empty t = t.mem_touches = 0 && t.n = 0

let replay ~mem ~atomics ~io t =
  let total = size t in
  (* Newest first, so the oldest pre-image of a location lands last. *)
  for j = t.n - 1 downto 0 do
    let old = t.olds.(j) in
    match decode t.codes.(j) with
    | K_mem a -> Vm.Mem.write mem a old
    | K_atomic v -> atomics.(v) <- old
    | K_file (f, off) -> Vm.Io.write io f ~off old
    | K_file_len f -> Vm.Io.truncate io f old
  done;
  reset t;
  total

let keys t = List.init t.n (fun j -> decode t.codes.(t.n - 1 - j))
