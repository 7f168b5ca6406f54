(* GPRS-lint: static dataflow analysis of a virtual-ISA program.

   For every proc a forward dataflow pass runs over the {!Cfg} computing,
   at each program point, the abstract lockset (which mutexes are held,
   in acquisition order), the open-CPR-region depth, and the abstract
   registers ({!Absval}). Sync-object ids are resolved by constant
   propagation plus probe evaluation; unresolved ids degrade to an
   [Lunk] lockset entry rather than poisoning the whole analysis.

   The pass is interprocedural in one direction: [Fork] sites contribute
   (via probe-evaluated argument vectors) to the initial abstract
   registers of the forked proc, and the proc worklist iterates to a
   fixpoint. Cross-proc facts — the mutex acquisition-order graph and
   which procs reach which barrier — are accumulated globally and
   checked after the fixpoint. *)

type lock = Lk of int | Lunk

type st = { locks : lock list; cpr : int; regs : Absval.t array }
(* [locks] is most-recent-first: acquisition order matters for the
   lock-order graph; discipline checks treat it as a multiset. *)

let max_locks = 16
let max_cpr = 16

(* --- lockset as a multiset ------------------------------------------ *)

let rec remove_one x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_one x rest

let multiset_equal a b = List.sort compare a = List.sort compare b

let multiset_inter a b =
  let rest = ref b in
  List.filter
    (fun x ->
      if List.mem x !rest then begin
        rest := remove_one x !rest;
        true
      end
      else false)
    a

let pp_lock ppf = function
  | Lk m -> Format.fprintf ppf "m%d" m
  | Lunk -> Format.pp_print_string ppf "m?"

let lockset_str locks =
  Format.asprintf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       pp_lock)
    (List.rev locks)

(* --- analysis context ----------------------------------------------- *)

type ctx = {
  prog : Vm.Isa.program;
  diags : (string * int * Diagnostic.kind * int, Diagnostic.t) Hashtbl.t;
      (* dedup: one report per (proc, pc, kind, tag); the tag
         disambiguates whole-program findings sharing pc = -1 *)
  lock_edges : (int * int, string * int) Hashtbl.t;
      (* (held, then-acquired) -> first site *)
  barrier_reach : (int, string list ref) Hashtbl.t;
      (* barrier id -> procs with a reachable arrival (discovery order) *)
  collect : bool;
      (* record access/fork facts for the race pass (costlier probes) *)
  accesses : (string * int, lock list * int * Races.summary) Hashtbl.t;
      (* (proc, pc) -> (lockset, cpr depth, access summary), overwritten
         on each fixpoint visit. Overwrite-last is sound: along the
         fixpoint locksets only shrink, registers only rise to Top (so
         summaries only get more conservative) and reachability grows. *)
  forks : (string * int, string) Hashtbl.t;  (* fork site -> target *)
  fuel_sites : (string * int, unit) Hashtbl.t;
      (* Work sites whose probe ran out of fuel at least once *)
  scratch : Races.scratch;  (* the probes' tables, for this run only *)
}

let report ?(tag = 0) ctx ~severity ~kind ~proc ~pc ~instr msg =
  let key = (proc, pc, kind, tag) in
  if not (Hashtbl.mem ctx.diags key) then
    Hashtbl.replace ctx.diags key
      (Diagnostic.make ~severity ~kind ~proc ~pc ~instr msg)

let note_barrier ctx b proc =
  let l =
    match Hashtbl.find_opt ctx.barrier_reach b with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace ctx.barrier_reach b l;
      l
  in
  if not (List.mem proc !l) then l := !l @ [ proc ]

let note_lock_edge ctx ~held ~acquired ~proc ~pc =
  if held <> acquired && not (Hashtbl.mem ctx.lock_edges (held, acquired))
  then Hashtbl.replace ctx.lock_edges (held, acquired) (proc, pc)

(* --- joins ----------------------------------------------------------- *)

let regs_equal a b = Array.for_all2 Absval.equal a b

let state_equal a b =
  a.cpr = b.cpr && multiset_equal a.locks b.locks && regs_equal a.regs b.regs

(* Join the state arriving over an edge into the state stored at [pc].
   Disagreements in lockset or region depth between paths are findings in
   their own right; the merge continues on the common part so one leak
   does not cascade. *)
let join_states ctx ~proc ~pc ~instr cur incoming =
  if not (multiset_equal cur.locks incoming.locks) then
    report ctx ~severity:Diagnostic.Error ~kind:Diagnostic.Inconsistent_locksets
      ~proc ~pc ~instr
      (Printf.sprintf
         "paths meet with different locksets: %s vs %s (a lock or unlock is \
          missing on some path)"
         (lockset_str cur.locks)
         (lockset_str incoming.locks));
  if cur.cpr <> incoming.cpr then
    report ctx ~severity:Diagnostic.Error ~kind:Diagnostic.Inconsistent_cpr
      ~proc ~pc ~instr
      (Printf.sprintf
         "paths meet with different CPR-region depths: %d vs %d (a \
          cpr_begin or cpr_end is missing on some path)"
         cur.cpr incoming.cpr);
  {
    locks = multiset_inter cur.locks incoming.locks;
    cpr = Stdlib.min cur.cpr incoming.cpr;
    regs = Array.map2 Absval.join cur.regs incoming.regs;
  }

(* --- per-proc dataflow ----------------------------------------------- *)

let set_reg_top s dst =
  if dst < 0 || dst >= Array.length s.regs then s
  else begin
    let regs = Array.copy s.regs in
    regs.(dst) <- Absval.Top;
    { s with regs }
  end

let analyze_proc ctx (proc : Vm.Isa.proc) ~entry_regs ~on_fork =
  let pname = proc.Vm.Isa.pname in
  let cfg = Cfg.build proc in
  let n = Cfg.end_node cfg in
  let code = proc.Vm.Isa.code in
  let states : st option array = Array.make (n + 1) None in
  let inq = Array.make (n + 1) false in
  let q = Queue.create () in
  let budget = ref (1000 * (n + 1)) in
  let iname pc =
    if pc = n then "(end)" else Vm.Isa.instr_name code.(pc)
  in
  let diag pc severity kind msg =
    report ctx ~severity ~kind ~proc:pname ~pc ~instr:(iname pc) msg
  in
  let push ~from pc s =
    if not (Cfg.in_bounds cfg pc) then
      diag from Diagnostic.Error Diagnostic.Bad_branch_target
        (Printf.sprintf "branch target %d outside code [0..%d]" pc n)
    else begin
      let merged, changed =
        match states.(pc) with
        | None -> (s, true)
        | Some cur ->
          let merged = join_states ctx ~proc:pname ~pc ~instr:(iname pc) cur s in
          (merged, not (state_equal merged cur))
      in
      if changed then begin
        states.(pc) <- Some merged;
        if not inq.(pc) then begin
          inq.(pc) <- true;
          Queue.push pc q
        end
      end
    end
  in
  let check_range pc ~what id ~limit =
    match id with
    | Absval.Known v when v < 0 || v >= limit ->
      diag pc Diagnostic.Error Diagnostic.Bad_sync_id
        (Printf.sprintf "%s id %d outside declared range [0..%d)" what v limit);
      false
    | Absval.Known _ | Absval.Top -> true
  in
  let exit_checks pc s ~implicit =
    if implicit then
      diag pc Diagnostic.Warning Diagnostic.Implicit_exit
        "control falls off the end of the code array (implicit exit)";
    if s.locks <> [] then
      diag pc Diagnostic.Error Diagnostic.Lock_at_blocking
        (Printf.sprintf
           "thread exits holding %s: waiters on those mutexes deadlock"
           (lockset_str s.locks));
    if s.cpr > 0 then
      diag pc Diagnostic.Error Diagnostic.Cpr_open_at_exit
        (Printf.sprintf
           "thread exits inside %d open CPR region(s): cpr_end is missing"
           s.cpr)
  in
  let step pc s =
    match code.(pc) with
    | Vm.Isa.Work { run; _ } ->
      let p =
        Races.probe_work ctx.scratch ~record:ctx.collect
          ~mem_words:ctx.prog.Vm.Isa.mem_words s.regs run
      in
      if p.Races.fuel_exhausted then
        Hashtbl.replace ctx.fuel_sites (pname, pc) ();
      if ctx.collect then
        Hashtbl.replace ctx.accesses (pname, pc)
          (s.locks, s.cpr, p.Races.summary);
      push ~from:pc (pc + 1) { s with regs = p.Races.regs }
    | Vm.Isa.Opaque _ ->
      (* Third-party code: unknown register effects. *)
      push ~from:pc (pc + 1)
        { s with regs = Absval.top_regs (Array.length s.regs) }
    | Vm.Isa.Goto target -> push ~from:pc target s
    | Vm.Isa.If { cond; target } -> (
      match Absval.eval_cond s.regs cond with
      | `True -> push ~from:pc target s
      | `False -> push ~from:pc (pc + 1) s
      | `Unknown ->
        push ~from:pc target s;
        push ~from:pc (pc + 1) s)
    | Vm.Isa.Lock { m } ->
      let id = Absval.eval_int s.regs m in
      ignore (check_range pc ~what:"mutex" id ~limit:ctx.prog.Vm.Isa.n_mutexes);
      let lk =
        match id with
        | Absval.Known k ->
          if List.mem (Lk k) s.locks then
            diag pc Diagnostic.Error Diagnostic.Double_lock
              (Printf.sprintf
                 "mutex %d is already held here; mutexes are not reentrant \
                  (self-deadlock)"
                 k);
          List.iter
            (function
              | Lk held -> note_lock_edge ctx ~held ~acquired:k ~proc:pname ~pc
              | Lunk -> ())
            s.locks;
          Lk k
        | Absval.Top -> Lunk
      in
      if List.length s.locks >= max_locks then begin
        diag pc Diagnostic.Warning Diagnostic.Lockset_overflow
          (Printf.sprintf "more than %d simultaneously-held locks; lockset \
                           tracking truncated" max_locks);
        push ~from:pc (pc + 1) s
      end
      else push ~from:pc (pc + 1) { s with locks = lk :: s.locks }
    | Vm.Isa.Unlock { m } -> (
      let id = Absval.eval_int s.regs m in
      ignore (check_range pc ~what:"mutex" id ~limit:ctx.prog.Vm.Isa.n_mutexes);
      match id with
      | Absval.Known k when List.mem (Lk k) s.locks ->
        push ~from:pc (pc + 1) { s with locks = remove_one (Lk k) s.locks }
      | Absval.Known _ when List.mem Lunk s.locks ->
        (* Pair the exact unlock with the unresolved acquisition. *)
        push ~from:pc (pc + 1) { s with locks = remove_one Lunk s.locks }
      | Absval.Known k ->
        diag pc Diagnostic.Error Diagnostic.Unlock_without_lock
          (Printf.sprintf "unlock of mutex %d which is not held (lockset %s)"
             k (lockset_str s.locks));
        push ~from:pc (pc + 1) s
      | Absval.Top when List.mem Lunk s.locks ->
        push ~from:pc (pc + 1) { s with locks = remove_one Lunk s.locks }
      | Absval.Top -> (
        match s.locks with
        | [] ->
          diag pc Diagnostic.Error Diagnostic.Unlock_without_lock
            "unlock with empty lockset";
          push ~from:pc (pc + 1) s
        | most_recent :: rest ->
          diag pc Diagnostic.Warning Diagnostic.Unresolved_unlock
            (Printf.sprintf
               "mutex id did not resolve statically; assuming it unlocks \
                the most recently acquired (%s)"
               (Format.asprintf "%a" pp_lock most_recent));
          push ~from:pc (pc + 1) { s with locks = rest }))
    | Vm.Isa.Barrier { b } ->
      let parties = ctx.prog.Vm.Isa.barrier_parties in
      if b < 0 || b >= Array.length parties then
        diag pc Diagnostic.Error Diagnostic.Bad_sync_id
          (Printf.sprintf "barrier id %d outside declared range [0..%d)" b
             (Array.length parties))
      else begin
        note_barrier ctx b pname;
        if parties.(b) <= 0 then
          diag pc Diagnostic.Error Diagnostic.Barrier_mismatch
            (Printf.sprintf
               "barrier %d has parties=%d: an arrival can never release" b
               parties.(b))
      end;
      if s.locks <> [] then
        diag pc Diagnostic.Error Diagnostic.Lock_at_blocking
          (Printf.sprintf
             "barrier arrival while holding %s: parties needing those \
              mutexes to reach the barrier deadlock"
             (lockset_str s.locks));
      push ~from:pc (pc + 1) s
    | Vm.Isa.Cond_wait { c; m } ->
      ignore
        (check_range pc ~what:"condvar" (Absval.Known c)
           ~limit:ctx.prog.Vm.Isa.n_condvars);
      ignore
        (check_range pc ~what:"mutex" (Absval.Known m)
           ~limit:ctx.prog.Vm.Isa.n_mutexes);
      if not (List.mem (Lk m) s.locks || List.mem Lunk s.locks) then
        diag pc Diagnostic.Error Diagnostic.Wait_without_mutex
          (Printf.sprintf
             "cond_wait on condvar %d releases mutex %d, but it is not \
              held (lockset %s)"
             c m (lockset_str s.locks));
      (* The mutex is released while waiting and reacquired before the
         wait returns, so the lockset is unchanged across the wait. *)
      push ~from:pc (pc + 1) s
    | Vm.Isa.Cond_signal { c; _ } ->
      ignore
        (check_range pc ~what:"condvar" (Absval.Known c)
           ~limit:ctx.prog.Vm.Isa.n_condvars);
      push ~from:pc (pc + 1) s
    | Vm.Isa.Atomic { var; dst; _ } ->
      ignore
        (check_range pc ~what:"atomic" (Absval.eval_int s.regs var)
           ~limit:ctx.prog.Vm.Isa.n_atomics);
      push ~from:pc (pc + 1) (set_reg_top s dst)
    | Vm.Isa.Nonstd_atomic { var; dst; _ } ->
      if s.cpr = 0 then
        diag pc Diagnostic.Error Diagnostic.Unprotected_nonstd
          "non-standard atomic reachable outside any cpr_begin/cpr_end \
           region: invisible to DEX, so hybrid recovery is unsound here";
      ignore
        (check_range pc ~what:"atomic" (Absval.eval_int s.regs var)
           ~limit:ctx.prog.Vm.Isa.n_atomics);
      push ~from:pc (pc + 1) (set_reg_top s dst)
    | Vm.Isa.Fork { proc = target; args; dst; _ } ->
      (match List.assoc_opt target ctx.prog.Vm.Isa.procs with
      | None ->
        diag pc Diagnostic.Error Diagnostic.Unknown_fork_target
          (Printf.sprintf "fork of proc %S which is not in the program"
             target)
      | Some _ ->
        let child = Array.make Vm.Isa.n_registers Absval.Top in
        (match Absval.eval_int_array s.regs args with
        | Some argv ->
          (* Registers are zeroed then the args are blitted in. *)
          Array.iteri
            (fun i _ ->
              child.(i) <-
                (if i < Array.length argv then argv.(i) else Absval.Known 0))
            child
        | None -> ());
        if ctx.collect then Hashtbl.replace ctx.forks (pname, pc) target;
        on_fork target child);
      push ~from:pc (pc + 1) (set_reg_top s dst)
    | Vm.Isa.Join _ ->
      if s.locks <> [] then
        diag pc Diagnostic.Error Diagnostic.Lock_at_blocking
          (Printf.sprintf
             "join while holding %s: if the joined thread needs those \
              mutexes it never exits"
             (lockset_str s.locks));
      push ~from:pc (pc + 1) s
    | Vm.Isa.Alloc { dst; _ } -> push ~from:pc (pc + 1) (set_reg_top s dst)
    | Vm.Isa.Free _ -> push ~from:pc (pc + 1) s
    | Vm.Isa.Cpr_begin ->
      if s.cpr > 0 then
        diag pc Diagnostic.Error Diagnostic.Nested_cpr
          "cpr_begin inside an open CPR region: region state is a flag, \
           so the inner cpr_end silently closes the outer region";
      push ~from:pc (pc + 1) { s with cpr = Stdlib.min (s.cpr + 1) max_cpr }
    | Vm.Isa.Cpr_end ->
      if s.cpr = 0 then begin
        diag pc Diagnostic.Error Diagnostic.Unmatched_cpr_end
          "cpr_end with no open CPR region";
        push ~from:pc (pc + 1) s
      end
      else push ~from:pc (pc + 1) { s with cpr = s.cpr - 1 }
    | Vm.Isa.Exit -> exit_checks pc s ~implicit:false
  in
  push ~from:0 0 { locks = []; cpr = 0; regs = entry_regs };
  let budget_hit = ref false in
  while not (Queue.is_empty q) do
    let pc = Queue.pop q in
    inq.(pc) <- false;
    decr budget;
    if !budget < 0 then begin
      if not !budget_hit then begin
        budget_hit := true;
        diag pc Diagnostic.Warning Diagnostic.Analysis_budget
          "dataflow iteration budget exhausted; findings may be incomplete"
      end;
      Queue.clear q
    end
    else
      match states.(pc) with
      | None -> ()
      | Some s ->
        if pc = n then exit_checks pc s ~implicit:true else step pc s
  done

(* --- whole-program driver -------------------------------------------- *)

let join_entry_regs cur incoming =
  match cur with
  | None -> incoming
  | Some cur -> Array.map2 Absval.join cur incoming

let analyze ctx =
  let prog = ctx.prog in
  let entry_regs : (string, Absval.t array) Hashtbl.t = Hashtbl.create 8 in
  let q = Queue.create () in
  let queued : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let enqueue name =
    if not (Hashtbl.mem queued name) then begin
      Hashtbl.replace queued name ();
      Queue.push name q
    end
  in
  Hashtbl.replace entry_regs prog.Vm.Isa.entry
    (Array.make Vm.Isa.n_registers (Absval.Known 0));
  enqueue prog.Vm.Isa.entry;
  let rounds = ref 0 in
  while not (Queue.is_empty q) && !rounds < 1000 do
    incr rounds;
    let name = Queue.pop q in
    Hashtbl.remove queued name;
    match List.assoc_opt name prog.Vm.Isa.procs with
    | None -> () (* reported at the fork site *)
    | Some proc ->
      let regs =
        match Hashtbl.find_opt entry_regs name with
        | Some r -> r
        | None -> Absval.top_regs Vm.Isa.n_registers
      in
      analyze_proc ctx proc ~entry_regs:regs ~on_fork:(fun target child ->
          let cur = Hashtbl.find_opt entry_regs target in
          let merged = join_entry_regs cur child in
          let changed =
            match cur with None -> true | Some c -> not (regs_equal c merged)
          in
          if changed then begin
            Hashtbl.replace entry_regs target merged;
            enqueue target
          end)
  done;
  (* Procs that are neither the entry nor ever forked: analyze them for
     discipline anyway (all-Top registers) and note the dead code. *)
  List.iter
    (fun (name, proc) ->
      if not (Hashtbl.mem entry_regs name) then begin
        report ctx ~severity:Diagnostic.Info ~kind:Diagnostic.Unforked_proc
          ~proc:name ~pc:(-1) ~instr:"-"
          "proc is neither the entry nor the target of any fork";
        analyze_proc ctx proc
          ~entry_regs:(Absval.top_regs Vm.Isa.n_registers)
          ~on_fork:(fun _ _ -> ())
      end)
    prog.Vm.Isa.procs

(* --- cross-proc checks ----------------------------------------------- *)

let check_barriers ctx =
  let parties = ctx.prog.Vm.Isa.barrier_parties in
  Array.iteri
    (fun b p ->
      match Hashtbl.find_opt ctx.barrier_reach b with
      | None | Some { contents = [] } ->
        report ctx ~tag:b ~severity:Diagnostic.Warning
          ~kind:Diagnostic.Barrier_mismatch ~proc:"(program)" ~pc:(-1)
          ~instr:"barrier"
          (Printf.sprintf
             "barrier %d (parties=%d) is declared but no proc reaches an \
              arrival"
             b p)
      | Some { contents = procs } ->
        if p < List.length procs then
          report ctx ~tag:b ~severity:Diagnostic.Warning
            ~kind:Diagnostic.Barrier_mismatch ~proc:"(program)" ~pc:(-1)
            ~instr:"barrier"
            (Printf.sprintf
               "barrier %d has parties=%d but %d distinct procs reach it \
                (%s): an episode can strand arrivals"
               b p (List.length procs)
               (String.concat ", " procs));
        report ctx ~tag:b ~severity:Diagnostic.Info
          ~kind:Diagnostic.Barrier_coverage ~proc:(List.hd procs) ~pc:(-1)
          ~instr:"barrier"
          (Printf.sprintf "barrier %d (parties=%d) reached by: %s" b p
             (String.concat ", " procs)))
    parties

(* Tarjan SCC over the acquisition-order graph; any component with two or
   more mutexes means conflicting acquisition orders — an ABBA deadlock
   candidate. *)
let check_lock_order ctx =
  let nodes = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (a, b) _ ->
      Hashtbl.replace nodes a ();
      Hashtbl.replace nodes b ())
    ctx.lock_edges;
  let succs a =
    Hashtbl.fold
      (fun (x, y) _ acc -> if x = a then y :: acc else acc)
      ctx.lock_edges []
  in
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (Stdlib.min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (Stdlib.min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      let comp = pop [] in
      if List.length comp >= 2 then sccs := comp :: !sccs
    end
  in
  Hashtbl.iter (fun v () -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  List.iter
    (fun comp ->
      let comp = List.sort compare comp in
      let in_comp m = List.mem m comp in
      let samples =
        Hashtbl.fold
          (fun (a, b) (p, pc) acc ->
            if in_comp a && in_comp b then ((a, b), (p, pc)) :: acc else acc)
          ctx.lock_edges []
        |> List.sort compare
      in
      let site_proc, site_pc =
        match samples with (_, s) :: _ -> s | [] -> ("(program)", -1)
      in
      let describe ((a, b), (p, pc)) =
        Printf.sprintf "m%d->m%d at %s.%d" a b p pc
      in
      let shown = List.filteri (fun i _ -> i < 4) samples in
      report ctx ~tag:(List.hd comp) ~severity:Diagnostic.Error
        ~kind:Diagnostic.Lock_order_cycle ~proc:site_proc ~pc:site_pc
        ~instr:"lock"
        (Printf.sprintf
           "mutexes {%s} are acquired in conflicting orders (%s%s): \
            potential ABBA deadlock"
           (String.concat ", " (List.map (Printf.sprintf "m%d") comp))
           (String.concat "; " (List.map describe shown))
           (if List.length samples > List.length shown then "; ..." else "")))
    !sccs

(* Per-proc "analysis degraded to Top" notes for probe fuel exhaustion:
   a body whose effects the probe could not afford to observe folds its
   registers to all-Top and its access summary to unknown, so both the
   discipline checks and the race pass are blinder at that proc. *)
let note_fuel ctx =
  let per_proc : (string, int list ref) Hashtbl.t = Hashtbl.create 4 in
  Hashtbl.iter
    (fun (p, pc) () ->
      match Hashtbl.find_opt per_proc p with
      | Some l -> l := pc :: !l
      | None -> Hashtbl.replace per_proc p (ref [ pc ]))
    ctx.fuel_sites;
  Hashtbl.iter
    (fun p l ->
      let pcs = List.sort compare !l in
      let shown = List.filteri (fun i _ -> i < 4) pcs in
      (* Info, not Warning: this notes reduced *analysis* coverage, not a
         program defect — the engines' pre-run hook and the default lint
         table hide Info, while --verbose and --json surface it. *)
      report ctx ~severity:Diagnostic.Info ~kind:Diagnostic.Probe_fuel
        ~proc:p ~pc:(-1) ~instr:"work"
        (Printf.sprintf
           "%d Work site%s (pc %s%s) exhausted the %d-operation probe \
            budget: register effects and access summaries degraded to Top \
            at this proc"
           (List.length pcs)
           (if List.length pcs = 1 then "" else "s")
           (String.concat ", " (List.map string_of_int shown))
           (if List.length pcs > List.length shown then ", ..." else "")
           Absval.probe_fuel))
    per_proc

(* --- public API ------------------------------------------------------- *)

type facts = {
  f_entry : string;
  f_accesses : (string * int * lock list * int * Races.summary) list;
      (* (proc, pc, lockset, cpr depth, summary) at each [Work] site *)
  f_forks : (string * int * string) list;  (* (forker, pc, target) *)
}

let driver ~collect (prog : Vm.Isa.program) =
  let ctx =
    {
      prog;
      diags = Hashtbl.create 32;
      lock_edges = Hashtbl.create 32;
      barrier_reach = Hashtbl.create 8;
      collect;
      accesses = Hashtbl.create 64;
      forks = Hashtbl.create 16;
      fuel_sites = Hashtbl.create 4;
      scratch = Races.scratch ();
    }
  in
  analyze ctx;
  check_barriers ctx;
  check_lock_order ctx;
  note_fuel ctx;
  let all = Hashtbl.fold (fun _ d acc -> d :: acc) ctx.diags [] in
  let facts =
    {
      f_entry = prog.Vm.Isa.entry;
      f_accesses =
        Hashtbl.fold
          (fun (p, pc) (locks, cpr, s) acc -> (p, pc, locks, cpr, s) :: acc)
          ctx.accesses []
        |> List.sort compare;
      f_forks =
        Hashtbl.fold (fun (p, pc) t acc -> (p, pc, t) :: acc) ctx.forks []
        |> List.sort compare;
    }
  in
  (List.sort Diagnostic.compare all, facts)

let program prog = fst (driver ~collect:false prog)

let program_facts prog = driver ~collect:true prog

let errors diags =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags

let has_errors diags = errors diags <> []

let admit ~title prog =
  let diags = program prog in
  (match
     List.filter (fun d -> d.Diagnostic.severity <> Diagnostic.Info) diags
   with
  | [] -> ()
  | visible -> Format.eprintf "%a" (Render.pp ~title) visible);
  errors diags

let has_kind kind diags =
  List.exists (fun d -> d.Diagnostic.kind = kind) diags
