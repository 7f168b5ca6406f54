type regs = int array

type instr =
  | Work of { cost : regs -> int; run : Env.t -> unit }
  | Goto of int
  | If of { cond : regs -> bool; target : int }
  | Lock of { m : regs -> int }
  | Unlock of { m : regs -> int }
  | Barrier of { b : int }
  | Cond_wait of { c : int; m : int }
  | Cond_signal of { c : int; all : bool }
  | Atomic of { var : regs -> int; rmw : old:int -> regs -> int; dst : int }
  | Nonstd_atomic of { var : regs -> int; rmw : old:int -> regs -> int; dst : int }
  | Fork of { group : int; proc : string; args : regs -> int array; dst : int }
  | Join of { tid : regs -> int }
  | Alloc of { size : regs -> int; dst : int }
  | Free of { addr : regs -> int }
  | Cpr_begin
  | Cpr_end
  | Opaque of { cost : regs -> int; run : Env.t -> unit }
  | Exit

type proc = { pname : string; code : instr array }

type program = {
  procs : (string * proc) list;
  entry : string;
  n_mutexes : int;
  n_condvars : int;
  n_atomics : int;
  barrier_parties : int array;
  n_groups : int;
  group_weights : int array;
  mem_words : int;
  reserved_words : int;
  input_files : (string * int array) list;
  output_files : string list;
}

let n_registers = 32

let find_proc p name =
  match List.assoc_opt name p.procs with
  | Some proc -> proc
  | None -> invalid_arg (Printf.sprintf "Isa.find_proc: unknown proc %S" name)

let instr_name = function
  | Work _ -> "work"
  | Goto _ -> "goto"
  | If _ -> "if"
  | Lock _ -> "lock"
  | Unlock _ -> "unlock"
  | Barrier _ -> "barrier"
  | Cond_wait _ -> "cond_wait"
  | Cond_signal { all = false; _ } -> "cond_signal"
  | Cond_signal { all = true; _ } -> "cond_broadcast"
  | Atomic _ -> "atomic"
  | Nonstd_atomic _ -> "nonstd_atomic"
  | Fork _ -> "fork"
  | Join _ -> "join"
  | Alloc _ -> "alloc"
  | Free _ -> "free"
  | Cpr_begin -> "cpr_begin"
  | Cpr_end -> "cpr_end"
  | Opaque _ -> "opaque"
  | Exit -> "exit"

let is_sync_point = function
  | Lock _ | Barrier _ | Cond_wait _ | Cond_signal _ | Atomic _ | Fork _
  | Join _ | Exit ->
    true
  | Work _ | Goto _ | If _ | Unlock _ | Nonstd_atomic _ | Alloc _ | Free _
  | Cpr_begin | Cpr_end | Opaque _ ->
    false

let is_communication = function
  | Lock _ | Barrier _ | Cond_wait _ | Cond_signal _ | Atomic _ -> true
  | Fork _ | Join _ | Exit | Work _ | Goto _ | If _ | Unlock _ | Nonstd_atomic _
  | Alloc _ | Free _ | Cpr_begin | Cpr_end | Opaque _ ->
    false
