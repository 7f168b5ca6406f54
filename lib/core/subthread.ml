type alias =
  | Mutex of int
  | Atomic_var of int
  | Condvar of int
  | Barrier_obj of int
  | Thread_edge of int

type status = Running | Complete of int | Squashed

type t = {
  mutable id : int;
  mutable tid : int;
  mutable started_at : int;
  mutable status : status;
  (* Alias sets are bitsets over small-int alias codes: 32 codes per
     word, [alias_words] words in use. [shares_alias] is a word-wise AND
     over the shorter prefix and [add_alias] is truly idempotent (the old
     list representation only deduped against the head). *)
  mutable alias_bits : int array;
  mutable alias_words : int;
  mutable global_dep : bool;
  mutable cpr_region : bool;
  saved : Vm.Tcb.saved;
  mutable held_locks : int list;
  undo : Exec.Undo_log.t;
  mutable forked : int list;
  mutable pending_mutex : int option;
  mutable freed_blocks : (int * int) list;
}

(* --- alias encoding --------------------------------------------------- *)

(* Injective small-int code: object id x kind. Object ids are dense and
   small (they index the program's sync-object tables), so the bitsets
   stay a handful of words. *)
let alias_code = function
  | Mutex m -> m * 5
  | Atomic_var v -> (v * 5) + 1
  | Condvar c -> (c * 5) + 2
  | Barrier_obj b -> (b * 5) + 3
  | Thread_edge t -> (t * 5) + 4

let alias_decode c =
  let obj = c / 5 in
  match c mod 5 with
  | 0 -> Mutex obj
  | 1 -> Atomic_var obj
  | 2 -> Condvar obj
  | 3 -> Barrier_obj obj
  | _ -> Thread_edge obj

let bits_initial = 4

let make ~id ~tid ~now ~saved =
  {
    id;
    tid;
    started_at = now;
    status = Running;
    alias_bits = Array.make bits_initial 0;
    alias_words = 0;
    global_dep = false;
    cpr_region = false;
    saved;
    held_locks = [];
    undo = Exec.Undo_log.create ();
    forked = [];
    pending_mutex = None;
    freed_blocks = [];
  }

let add_alias t a =
  let c = alias_code a in
  let w = c lsr 5 in
  if w >= Array.length t.alias_bits then begin
    let cap = ref (Array.length t.alias_bits) in
    while !cap <= w do
      cap := !cap * 2
    done;
    let bits = Array.make !cap 0 in
    Array.blit t.alias_bits 0 bits 0 t.alias_words;
    t.alias_bits <- bits
  end;
  t.alias_bits.(w) <- t.alias_bits.(w) lor (1 lsl (c land 31));
  if w >= t.alias_words then t.alias_words <- w + 1

let mem_alias t a =
  let c = alias_code a in
  let w = c lsr 5 in
  w < t.alias_words && t.alias_bits.(w) land (1 lsl (c land 31)) <> 0

let clear_aliases t =
  Array.fill t.alias_bits 0 t.alias_words 0;
  t.alias_words <- 0

let aliases t =
  let acc = ref [] in
  for w = t.alias_words - 1 downto 0 do
    let word = t.alias_bits.(w) in
    if word <> 0 then
      for b = 31 downto 0 do
        if word land (1 lsl b) <> 0 then
          acc := alias_decode ((w lsl 5) lor b) :: !acc
      done
  done;
  !acc

let shares_alias a b =
  a.global_dep || b.global_dep
  ||
  let n = Stdlib.min a.alias_words b.alias_words in
  let rec go i =
    i < n && (a.alias_bits.(i) land b.alias_bits.(i) <> 0 || go (i + 1))
  in
  go 0

(* --- accumulated alias sets (selective-squash walk) ------------------- *)

type aset = {
  mutable abits : int array;
  mutable awords : int;
  mutable aglobal : bool;
}

let aset_create () = { abits = Array.make 8 0; awords = 0; aglobal = false }

let aset_add set sub =
  if sub.global_dep then set.aglobal <- true;
  if sub.alias_words > Array.length set.abits then begin
    let cap = ref (Array.length set.abits) in
    while !cap < sub.alias_words do
      cap := !cap * 2
    done;
    let bits = Array.make !cap 0 in
    Array.blit set.abits 0 bits 0 set.awords;
    set.abits <- bits
  end;
  for w = 0 to sub.alias_words - 1 do
    set.abits.(w) <- set.abits.(w) lor sub.alias_bits.(w)
  done;
  if sub.alias_words > set.awords then set.awords <- sub.alias_words

let aset_shares set sub =
  set.aglobal || sub.global_dep
  ||
  let n = Stdlib.min set.awords sub.alias_words in
  let rec go i =
    i < n && (set.abits.(i) land sub.alias_bits.(i) <> 0 || go (i + 1))
  in
  go 0

(* --- status ----------------------------------------------------------- *)

let is_complete t = match t.status with Complete _ -> true | Running | Squashed -> false

let completion_time t =
  match t.status with Complete c -> Some c | Running | Squashed -> None

(* --- pooling ---------------------------------------------------------- *)

type pool = {
  reuse : bool;
  mutable free : t list;
  mutable hits : int;
  mutable misses : int;
  mutable live : int;
  mutable live_hw : int;
}

let pool_create ?(reuse = true) () =
  { reuse; free = []; hits = 0; misses = 0; live = 0; live_hw = 0 }

let acquire p ~id ~tid ~now ~(tcb : Vm.Tcb.t) =
  p.live <- p.live + 1;
  if p.live > p.live_hw then p.live_hw <- p.live;
  match p.free with
  | sub :: rest when p.reuse ->
    p.free <- rest;
    p.hits <- p.hits + 1;
    sub.id <- id;
    sub.tid <- tid;
    sub.started_at <- now;
    sub.status <- Running;
    Vm.Tcb.copy_state_into tcb sub.saved;
    sub
  | _ ->
    p.misses <- p.misses + 1;
    make ~id ~tid ~now ~saved:(Vm.Tcb.copy_state tcb)

let release p sub =
  p.live <- p.live - 1;
  if p.reuse then begin
    (* Scrub at release, not acquire: a parked record must reference
       nothing from its previous life (undo pre-images, freed blocks,
       forked tids), so squashed state can never be resurrected through
       the pool. *)
    clear_aliases sub;
    sub.global_dep <- false;
    sub.cpr_region <- false;
    sub.held_locks <- [];
    Exec.Undo_log.reset sub.undo;
    sub.forked <- [];
    sub.pending_mutex <- None;
    sub.freed_blocks <- [];
    p.free <- sub :: p.free
  end

let pool_stats p = (p.hits, p.misses, p.live_hw)

(* --- pretty-printing -------------------------------------------------- *)

let pp_alias ppf = function
  | Mutex m -> Format.fprintf ppf "m%d" m
  | Atomic_var v -> Format.fprintf ppf "a%d" v
  | Condvar c -> Format.fprintf ppf "c%d" c
  | Barrier_obj b -> Format.fprintf ppf "b%d" b
  | Thread_edge t -> Format.fprintf ppf "t%d" t

let pp ppf t =
  Format.fprintf ppf "sub#%d(tid=%d,%s,[%a]%s)" t.id t.tid
    (match t.status with
    | Running -> "running"
    | Complete c -> Printf.sprintf "complete@%d" c
    | Squashed -> "squashed")
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       pp_alias)
    (aliases t)
    (if t.global_dep then ",⊤" else "")
