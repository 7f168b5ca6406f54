type event =
  | Make_runnable of { tid : int; queued : bool; on_ctx : bool; destroyed : bool }
  | Grant of { tid : int; instr : string; pc : int }
  | Park of { tid : int; instr : string; pc : int }
  | Fill of { ctx : int; tid : int; wait : Vm.Tcb.wait }

type t = {
  mutable on : bool;
  mutable times : int array;
  mutable events : event array;
  mutable next : int;
  mutable total : int;
}

let create () = { on = false; times = [||]; events = [||]; next = 0; total = 0 }

let enable t ~capacity =
  let n = Stdlib.max 1 capacity in
  t.times <- Array.make n 0;
  t.events <- Array.make n (Park { tid = -1; instr = ""; pc = 0 });
  t.next <- 0;
  t.total <- 0;
  t.on <- true

let enabled t = t.on

(* Each recorder below tests [t.on] before it builds its event, so an
   off ring allocates nothing. *)
let push t at ev =
  t.times.(t.next) <- at;
  t.events.(t.next) <- ev;
  t.next <- (t.next + 1) mod Array.length t.times;
  t.total <- t.total + 1

let make_runnable t ~at ~tid ~queued ~on_ctx ~destroyed =
  if t.on then push t at (Make_runnable { tid; queued; on_ctx; destroyed })

let grant t ~at ~tid instr ~pc =
  if t.on then push t at (Grant { tid; instr = Vm.Isa.instr_name instr; pc })

let park t ~at ~tid instr ~pc =
  if t.on then push t at (Park { tid; instr = Vm.Isa.instr_name instr; pc })

let fill t ~at ~ctx ~tid wait = if t.on then push t at (Fill { ctx; tid; wait })

let recorded t = t.total

let to_list t =
  let cap = Array.length t.times in
  let n = Stdlib.min t.total cap in
  let start = if t.total <= cap then 0 else t.next in
  List.init n (fun i ->
      let j = (start + i) mod cap in
      (t.times.(j), t.events.(j)))

let pp_event ppf = function
  | Make_runnable { tid; queued; on_ctx; destroyed } ->
    Format.fprintf ppf "make_runnable %d queued=%b on_ctx=%b destroyed=%b" tid
      queued on_ctx destroyed
  | Grant { tid; instr; pc } -> Format.fprintf ppf "grant %d %s pc=%d" tid instr pc
  | Park { tid; instr; pc } -> Format.fprintf ppf "park %d %s pc=%d" tid instr pc
  | Fill { ctx; tid; wait } ->
    Format.fprintf ppf "fill ctx=%d tid=%d wait=%a" ctx tid Vm.Tcb.pp_wait wait
