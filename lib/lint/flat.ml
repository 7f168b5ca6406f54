(* Flat int-keyed scratch tables for the lint probes: the sandbox's
   written-memory and per-fd file tables ({!Absval.sandbox}) and the race
   probe's access sets ({!Races.scratch}).

   Open addressing with linear probing, kept at most seven eighths
   full: one int array holds [key; value] per slot and one byte per slot
   stamps it. Slot [i] is occupied iff its stamp equals [gen], so
   [reset] is one increment, and only every 255th reset re-zeroes the
   stamps. A table keeps its capacity from one probe to the next, so a
   body that fills it to the probe's fuel limit pays the growth once per
   lint run, not once per probe. Lookups and inserts allocate nothing;
   only growth does. Keys are arbitrary ints ([min_int] and [max_int]
   included). *)

type t = {
  mutable kv : int array;  (* [key; value] per slot *)
  mutable stamps : Bytes.t;  (* one per slot; 0 is never [gen] *)
  mutable bits : int;  (* log2 of the capacity; 0 before the first insert *)
  mutable gen : int;  (* 1 .. 255 *)
  mutable count : int;
}

let create () = { kv = [||]; stamps = Bytes.empty; bits = 0; gen = 1; count = 0 }

let reset t =
  t.count <- 0;
  if t.gen < 255 then t.gen <- t.gen + 1
  else begin
    Bytes.fill t.stamps 0 (Bytes.length t.stamps) '\000';
    t.gen <- 1
  end

let length t = t.count

(* Fibonacci hashing: the top bits of the product, so consecutive keys
   spread over the table. *)
let home t k = (k * 0x278DDE6E5FD29E0B) lsr (Sys.int_size - t.bits)

(* The slot holding [k], or [lnot] of the free slot where it would go. *)
let rec seek t k i =
  if Char.code (Bytes.get t.stamps i) <> t.gen then lnot i
  else if t.kv.(2 * i) = k then i
  else seek t k ((i + 1) land ((1 lsl t.bits) - 1))

(* The slot holding [k], or -1. *)
let find t k = if t.count = 0 then -1 else Stdlib.max (-1) (seek t k (home t k))

let value t i = t.kv.((2 * i) + 1)
let set_value t i v = t.kv.((2 * i) + 1) <- v

let fill t i k v =
  Bytes.set t.stamps i (Char.unsafe_chr t.gen);
  t.kv.(2 * i) <- k;
  t.kv.((2 * i) + 1) <- v

(* Double the capacity (16 slots at first) and re-insert the live slots
   under the same generation. *)
let grow t =
  let kv = t.kv and stamps = t.stamps in
  t.bits <- (if t.bits = 0 then 4 else t.bits + 1);
  t.kv <- Array.make (2 lsl t.bits) 0;
  t.stamps <- Bytes.make (1 lsl t.bits) '\000';
  for i = 0 to Bytes.length stamps - 1 do
    if Char.code (Bytes.get stamps i) = t.gen then begin
      let k = kv.(2 * i) in
      fill t (lnot (seek t k (home t k))) k kv.((2 * i) + 1)
    end
  done

(* The slot of [k], inserted with value [init] if absent. *)
let slot t k ~init =
  let i = if t.bits = 0 then -1 else seek t k (home t k) in
  if i >= 0 then i
  else begin
    let i =
      if 8 * (t.count + 1) <= 7 lsl t.bits then lnot i
      else begin
        grow t;
        lnot (seek t k (home t k))
      end
    in
    fill t i k init;
    t.count <- t.count + 1;
    i
  end

let replace t k v = set_value t (slot t k ~init:v) v

(* Or [bits] into the value of [k] (0 if absent). *)
let add_bits t k bits =
  let i = slot t k ~init:0 in
  set_value t i (value t i lor bits)

let fold_live t f acc =
  let acc = ref acc in
  if t.count > 0 then
    for i = 0 to Bytes.length t.stamps - 1 do
      if Char.code (Bytes.get t.stamps i) = t.gen then
        acc := f t.kv.(2 * i) t.kv.((2 * i) + 1) !acc
    done;
  !acc

(* The keys whose value has a bit of [mask] set, in increasing order. *)
let sorted_keys t ~mask =
  fold_live t (fun k v acc -> if v land mask <> 0 then k :: acc else acc) []
  |> List.sort Int.compare

let count_keys t ~mask =
  fold_live t (fun _ v n -> if v land mask <> 0 then n + 1 else n) 0
