(* Fused-block pre-decoder and superblock trace compiler. See block.mli. *)

type cls = Fuse | Ctrl | Stop

let classify = function
  | Isa.Work _ | Isa.Opaque _ -> Fuse
  | Isa.Goto _ | Isa.If _ | Isa.Cpr_begin | Isa.Cpr_end -> Ctrl
  | Isa.Lock _ | Isa.Unlock _ | Isa.Barrier _ | Isa.Cond_wait _
  | Isa.Cond_signal _ | Isa.Atomic _ | Isa.Nonstd_atomic _ | Isa.Fork _
  | Isa.Join _ | Isa.Alloc _ | Isa.Free _ | Isa.Exit ->
    Stop

(* --- profiling switch ------------------------------------------------ *)

let profiling = ref false
let set_profiling b = profiling := b

(* --- compiled superblocks --------------------------------------------- *)

type deopt = Trace_end | Guard_fail | Horizon

type cursor = {
  mutable cu_tcb : Tcb.t;
  mutable cu_env : Env.t;
  mutable cu_take_acc : unit -> int;
  mutable cu_vnow : int;
  mutable cu_horizon : int;
  mutable cu_steps : int;
  mutable cu_ctrl : int;
  mutable cu_opaques : int;
  mutable cu_opaque_in_cpr : bool;
  mutable cu_entered_cpr : bool;
  mutable cu_deopt : deopt;
}

let make_cursor ~tcb ~env ~take_acc =
  {
    cu_tcb = tcb;
    cu_env = env;
    cu_take_acc = take_acc;
    cu_vnow = 0;
    cu_horizon = 0;
    cu_steps = 0;
    cu_ctrl = 0;
    cu_opaques = 0;
    cu_opaque_in_cpr = false;
    cu_entered_cpr = false;
    cu_deopt = Trace_end;
  }

type cell = {
  mutable body : cursor -> unit;
  mutable c_exec : bool;  (* has at least one compiled step *)
  mutable c_entry : bool;
      (* worth entering from the dispatch loop: the predicted trace loops
         or runs at least [min_entry_steps] compiled steps. Cells that
         fail the test keep their bodies (they are tail-called from
         worthy traces) but are not handed out by [trace_at] — entry
         setup does not amortize over a two-instruction trace. *)
}

let terminal_body cu = cu.cu_deopt <- Trace_end

(* Floor charged per instruction; must agree with [Sem.min_cost] (both
   are {!Costs.min_instr_cost}). *)
let min_instr_cost = Costs.min_instr_cost

let always_true : Isa.regs -> bool = fun _ -> true

let make_check guards =
  match guards with
  | [] -> always_true
  | [ (cond, expect) ] -> fun regs -> cond regs = expect
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    fun regs ->
      let rec go i =
        i >= n
        ||
        let cond, expect = a.(i) in
        cond regs = expect && go (i + 1)
      in
      go 0

(* One compiled step: guard the predicted path, commit pc / CPR flag, run
   the landing instruction through the cursor's cached env, advance the
   clock by the pre-summed control cycles + the instruction's duration,
   then tail-call the next cell. Commit order matters: pc and the CPR
   flag are written {e before} [run] so the sanitizer hooks (which read
   [tcb.pc] and skip CPR-region accesses) see exactly what the
   interpreted chain shows them. *)
let make_step ~check ~nctrl ~cpr ~entered ~commit_pc ~cost ~run ~opaque ~next =
  fun cu ->
    if cu.cu_vnow >= cu.cu_horizon then cu.cu_deopt <- Horizon
    else begin
      let tcb = cu.cu_tcb in
      if not (check tcb.Tcb.regs) then cu.cu_deopt <- Guard_fail
      else begin
        tcb.Tcb.pc <- commit_pc;
        (match cpr with
        | Some b -> tcb.Tcb.in_cpr_region <- b
        | None -> ());
        if entered then cu.cu_entered_cpr <- true;
        let declared = cost tcb.Tcb.regs in
        run cu.cu_env;
        let d = declared + cu.cu_take_acc () in
        let d = if d < min_instr_cost then min_instr_cost else d in
        cu.cu_vnow <- cu.cu_vnow + nctrl + d;
        cu.cu_ctrl <- cu.cu_ctrl + nctrl;
        cu.cu_steps <- cu.cu_steps + 1;
        if opaque then begin
          cu.cu_opaques <- cu.cu_opaques + 1;
          cu.cu_opaque_in_cpr <- tcb.Tcb.in_cpr_region
        end;
        next.body cu
      end
    end

(* Bound on control transfers crossed while building one step's prefix:
   a chain longer than this (e.g. a Goto cycle with no fusible landing)
   is left uncompiled — the interpreted probe handles it. *)
let max_ctrl_prefix = 32

(* --- static pre-decode ------------------------------------------------ *)

type proc_blocks = {
  fuse_run : int array;
      (* fuse_run.(pc) = length of the maximal Fuse-class run starting at
         pc (0 when code.(pc) is not Fuse-class) *)
  n_blocks : int;
  lengths : (int * int) list;
  cells : cell option array;
      (* cells.(pc) = compiled superblock cell entered at boundary pc;
         entries exist for every reachable boundary, but only cells with
         [c_exec] (at least one compiled step) are handed out *)
  n_compiled : int;
}

type t = (string, proc_blocks) Hashtbl.t

(* Compile the superblock DAG for one proc: one cell per boundary pc,
   each cell's body a closure executing the control prefix (statically
   predicted: backward [If] taken, forward fall-through, with the
   direction recorded as a guard) plus the fusible landing instruction,
   tail-calling the cell at the landing's successor. Loops tie the knot
   — the cycle of cells is shared, nothing is unrolled. *)
let min_entry_steps = 2

let compile_proc (code : Isa.instr array) =
  let n = Array.length code in
  let cells = Array.make (n + 1) None in
  let succs = Array.make (n + 1) (-1) in
  let terminal = { body = terminal_body; c_exec = false; c_entry = false } in
  let rec walk pc =
    if pc < 0 || pc > n then terminal
    else
      match cells.(pc) with
      | Some c -> c
      | None ->
        let c = { body = terminal_body; c_exec = false; c_entry = false } in
        cells.(pc) <- Some c;
        build pc c;
        c
  and build pc c =
    let guards = ref [] in
    let rec follow p crossings ctrl cpr entered =
      if crossings > max_ctrl_prefix then None
      else if p < 0 || p >= n then None
      else
        match code.(p) with
        | Isa.Goto t -> follow t (crossings + 1) (ctrl + 1) cpr entered
        | Isa.If { cond; target } ->
          let take = target <= p in
          guards := (cond, take) :: !guards;
          follow
            (if take then target else p + 1)
            (crossings + 1) (ctrl + 1) cpr entered
        | Isa.Cpr_begin -> follow (p + 1) (crossings + 1) (ctrl + 1) (Some true) true
        | Isa.Cpr_end -> follow (p + 1) (crossings + 1) (ctrl + 1) (Some false) entered
        | Isa.Work { cost; run } -> Some (p, ctrl, cpr, entered, cost, run, false)
        | Isa.Opaque { cost; run } -> Some (p, ctrl, cpr, entered, cost, run, true)
        | _ -> None
    in
    match follow pc 0 0 None false with
    | None -> ()
    | Some (lpc, nctrl, cpr, entered, cost, run, opaque) ->
      let next = walk (lpc + 1) in
      let check = make_check (List.rev !guards) in
      succs.(pc) <- lpc + 1;
      c.body <-
        make_step ~check ~nctrl ~cpr ~entered ~commit_pc:(lpc + 1) ~cost ~run
          ~opaque ~next;
      c.c_exec <- true
  in
  (* Seed every pc so any boundary an engine can reach mid-loop has an
     enterable cell, not just static block heads. *)
  for pc = 0 to n do
    ignore (walk pc)
  done;
  (* Worth pass: mark entry points. Walking the predicted successor
     chain, a trace is worth entering if it revisits a boundary (a loop,
     which iterates inside the closure cycle) or makes at least
     [min_entry_steps] compiled steps before ending. Purely static, so
     the set of compiled entries is deterministic. *)
  let rec measure p steps seen =
    steps >= min_entry_steps
    || p >= 0 && p <= n
       &&
       match cells.(p) with
       | Some c when c.c_exec ->
         List.memq p seen || measure succs.(p) (steps + 1) (p :: seen)
       | _ -> false
  in
  let n_compiled = ref 0 in
  Array.iteri
    (fun pc slot ->
      match slot with
      | Some c when c.c_exec ->
        incr n_compiled;
        c.c_entry <- measure pc 0 []
      | _ -> ())
    cells;
  (cells, !n_compiled)

let analyze_proc (p : Isa.proc) =
  let code = p.Isa.code in
  let n = Array.length code in
  let fuse_run = Array.make (n + 1) 0 in
  for pc = n - 1 downto 0 do
    if classify code.(pc) = Fuse then fuse_run.(pc) <- 1 + fuse_run.(pc + 1)
  done;
  (* Static blocks: maximal Fuse runs additionally broken at branch
     targets, so each block is straight-line code with a unique entry. *)
  let target = Array.make (n + 1) false in
  Array.iter
    (fun i ->
      let mark t = if t >= 0 && t <= n then target.(t) <- true in
      match i with
      | Isa.Goto t -> mark t
      | Isa.If { target = t; _ } -> mark t
      | _ -> ())
    code;
  let hist = Hashtbl.create 8 in
  let n_blocks = ref 0 in
  let pc = ref 0 in
  while !pc < n do
    if fuse_run.(!pc) = 0 then incr pc
    else begin
      let len = ref 0 in
      let limit = fuse_run.(!pc) in
      while !len < limit && (!len = 0 || not target.(!pc + !len)) do
        incr len
      done;
      incr n_blocks;
      let cur = Option.value ~default:0 (Hashtbl.find_opt hist !len) in
      Hashtbl.replace hist !len (cur + 1);
      pc := !pc + !len
    end
  done;
  let cells, n_compiled = compile_proc code in
  {
    fuse_run;
    n_blocks = !n_blocks;
    lengths =
      List.sort compare (Hashtbl.fold (fun l c acc -> (l, c) :: acc) hist []);
    cells;
    n_compiled;
  }

(* Process-wide count of [analyze] calls. The service-mode program cache
   promises that a warm-cache dispatch never re-decodes or re-compiles;
   its bench and tests pin that promise by asserting this counter does
   not move across a warm phase. Atomic: analyses can run on pool worker
   domains. *)
let analyze_count = Atomic.make 0

let analyses () = Atomic.get analyze_count

let analyze (p : Isa.program) : t =
  Atomic.incr analyze_count;
  let t = Hashtbl.create (List.length p.Isa.procs) in
  List.iter
    (fun (name, proc) -> Hashtbl.replace t name (analyze_proc proc))
    p.Isa.procs;
  t

let proc_info (t : t) (p : Isa.proc) =
  match Hashtbl.find_opt t p.Isa.pname with
  | Some info -> info
  | None -> invalid_arg ("Block.proc_info: unknown proc " ^ p.Isa.pname)

let static_histogram (t : t) =
  let hist = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ info ->
      List.iter
        (fun (l, c) ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt hist l) in
          Hashtbl.replace hist l (cur + c))
        info.lengths)
    t;
  List.sort compare (Hashtbl.fold (fun l c acc -> (l, c) :: acc) hist [])

let n_compiled (t : t) =
  Hashtbl.fold (fun _ info acc -> acc + info.n_compiled) t 0

let trace_at info pc =
  if pc < 0 || pc >= Array.length info.cells then None
  else
    match info.cells.(pc) with
    | Some c when c.c_entry -> Some c
    | _ -> None

let enter (c : cell) cu = c.body cu

(* --- control-flow probe ----------------------------------------------- *)

type probe = {
  p_pc : int;
  p_ctrl : int;
  p_in_cpr : bool;
  p_entered_cpr : bool;
}

let probe_ctrl (p : Isa.proc) ~pc ~regs ~in_cpr =
  let code = p.Isa.code in
  let n = Array.length code in
  let rec go pc ctrl in_cpr entered =
    if pc < 0 || pc >= n then
      { p_pc = pc; p_ctrl = ctrl; p_in_cpr = in_cpr; p_entered_cpr = entered }
    else
      match code.(pc) with
      | Isa.Goto target -> go target (ctrl + 1) in_cpr entered
      | Isa.If { cond; target } ->
        go (if cond regs then target else pc + 1) (ctrl + 1) in_cpr entered
      | Isa.Cpr_begin -> go (pc + 1) (ctrl + 1) true true
      | Isa.Cpr_end -> go (pc + 1) (ctrl + 1) false entered
      | _ ->
        { p_pc = pc; p_ctrl = ctrl; p_in_cpr = in_cpr; p_entered_cpr = entered }
  in
  go pc 0 in_cpr false

let landing (p : Isa.proc) pr =
  if pr.p_pc >= 0 && pr.p_pc < Array.length p.Isa.code then
    Some p.Isa.code.(pr.p_pc)
  else None

(* --- dispatch-mix profiling ------------------------------------------- *)

let profile_instr stats (i : Isa.instr) =
  if !profiling then Sim.Stats.incr stats ("dispatch." ^ Isa.instr_name i)

let profile_ctrl stats n =
  if !profiling && n > 0 then Sim.Stats.add stats "dispatch.ctrl" n

let hop_cap = 64

let profile_hop stats len =
  if !profiling then begin
    Sim.Stats.incr stats "fuse.hops";
    Sim.Stats.incr stats
      (if len > hop_cap then Printf.sprintf "fuse.len.%02d+" hop_cap
       else Printf.sprintf "fuse.len.%02d" len)
  end
