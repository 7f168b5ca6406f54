type wait =
  | Runnable
  | On_mutex of int
  | On_cond of { c : int; m : int }
  | Reacquire of int
  | On_barrier of int
  | On_join of int
  | On_token
  | Done

type t = {
  tid : int;
  group : int;
  proc : Isa.proc;
  mutable pc : int;
  regs : int array;
  mutable wait : wait;
  mutable joiners : int list;
  mutable in_cpr_region : bool;
  mutable held_mutexes : int list;
}

(* Flat unboxed snapshot: one int array, blit-copied whole. Layout:
   [0] pc, [1] CPR flag (0/1), [2 .. 2+R) registers. The register count
   is fixed, so the offsets are stable across every snapshot. *)
type saved = int array

let regs_off = 2

let create ~tid ~group ~proc ~args =
  let regs = Array.make Isa.n_registers 0 in
  Array.blit args 0 regs 0 (Stdlib.min (Array.length args) Isa.n_registers);
  {
    tid;
    group;
    proc;
    pc = 0;
    regs;
    wait = Runnable;
    joiners = [];
    in_cpr_region = false;
    held_mutexes = [];
  }

let current_instr t =
  if t.pc >= 0 && t.pc < Array.length t.proc.Isa.code then
    Some t.proc.Isa.code.(t.pc)
  else None

let copy_state_into t s =
  let r = Array.length t.regs in
  s.(0) <- t.pc;
  s.(1) <- (if t.in_cpr_region then 1 else 0);
  Array.blit t.regs 0 s regs_off r

let copy_state t =
  let s = Array.make (regs_off + Array.length t.regs) 0 in
  copy_state_into t s;
  s

(* The held set is kept sorted by descending mutex index — the order the
   old O(#mutexes) table scan produced — so checkpoint capture can alias
   the list and restore re-grants mutexes in the identical order. *)
let hold t m =
  let rec ins = function
    | [] -> [ m ]
    | x :: _ as l when x < m -> m :: l
    | x :: r when x > m -> x :: ins r
    | l -> l (* already held: holder maps are single-owner, keep idempotent *)
  in
  t.held_mutexes <- ins t.held_mutexes

let unhold t m =
  let rec rm = function
    | [] -> []
    | x :: r -> if x = m then r else x :: rm r
  in
  t.held_mutexes <- rm t.held_mutexes

let restore_state t s =
  let r = Array.length t.regs in
  t.pc <- s.(0);
  t.in_cpr_region <- s.(1) <> 0;
  Array.blit s regs_off t.regs 0 r

let pp_wait ppf = function
  | Runnable -> Format.pp_print_string ppf "runnable"
  | On_mutex m -> Format.fprintf ppf "on_mutex(%d)" m
  | On_cond { c; m } -> Format.fprintf ppf "on_cond(%d,m%d)" c m
  | Reacquire m -> Format.fprintf ppf "reacquire(%d)" m
  | On_barrier b -> Format.fprintf ppf "on_barrier(%d)" b
  | On_join t -> Format.fprintf ppf "on_join(%d)" t
  | On_token -> Format.pp_print_string ppf "on_token"
  | Done -> Format.pp_print_string ppf "done"
