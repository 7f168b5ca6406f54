(* Eraser-style static lockset race analysis.

   GPRS's selective squash computes its undo set from *tracked*
   dependences (lock handoffs, sub-thread alias sets), which is complete
   only for data-race-free programs: an unsynchronized conflicting
   access is a dependence the WAL never saw, so the squash set is
   silently incomplete. This pass discharges that assumption statically.

   Candidate conflicts come from the per-[Work]-site access summaries
   {!Check.program_facts} collects ({!Races.summary}): two sites
   conflict when their may-access regions overlap (word against word,
   word against page, or page against page), at least one side writes,
   and the sites can actually run concurrently. Lockset refinement is
   classic Eraser: a conflict is a race unless the two sites' dataflow
   locksets share a statically-resolved mutex — an unresolved [Lunk]
   entry can never prove identity, so dynamically-chosen locks protect
   nothing *statically* (the dynamic sanitizer {!Exec.Tsan} covers them
   with exact lock identities at run time).

   Concurrency approximation:
   - the entry proc is excluded: everything it executes is ordered
     against the workers it forks and joins (fork/join edges), which is
     exactly the main-initializes / workers-read idiom;
   - cross-proc pairs of forked procs are concurrent;
   - same-proc pairs (including a site against itself) require fork
     multiplicity >= 2 — a proc forked once cannot self-race. A fork
     site on a CFG cycle counts as multiplicity 2.
   - accesses inside a CPR region (depth > 0) are exempt on both sides:
     hybrid recovery (§3.5) restores such regions from coordinated
     checkpoints and never selectively squashes them, so race freedom is
     not assumed there (that is the whole point of the escape hatch). *)

let max_reports = 50

(* --- fork multiplicity ------------------------------------------------ *)

(* A fork site reachable from its own successors re-executes, so its
   target is forked at least twice. *)
let site_on_cycle cfg pc =
  let n = Cfg.end_node cfg in
  let seen = Array.make (n + 1) false in
  let rec go x =
    if Cfg.in_bounds cfg x && not seen.(x) then begin
      seen.(x) <- true;
      List.iter go (Cfg.successors cfg x)
    end
  in
  List.iter go (Cfg.successors cfg pc);
  Cfg.in_bounds cfg pc && seen.(pc)

(* How many instances of each proc can run: 0 (never forked), 1, or
   "2 or more" (capped — higher counts add nothing to pairing). *)
let multiplicities (prog : Vm.Isa.program) (facts : Check.facts) =
  let mult : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let get p = Option.value (Hashtbl.find_opt mult p) ~default:0 in
  let cfgs : (string, Cfg.t) Hashtbl.t = Hashtbl.create 8 in
  let cfg_of p =
    match Hashtbl.find_opt cfgs p with
    | Some c -> c
    | None ->
      let c = Cfg.build (List.assoc p prog.Vm.Isa.procs) in
      Hashtbl.replace cfgs p c;
      c
  in
  let weighted =
    List.filter_map
      (fun (forker, pc, target) ->
        if List.mem_assoc forker prog.Vm.Isa.procs then
          Some (forker, target, if site_on_cycle (cfg_of forker) pc then 2 else 1)
        else None)
      facts.Check.f_forks
  in
  let procs = List.map fst prog.Vm.Isa.procs in
  let changed = ref true in
  Hashtbl.replace mult facts.Check.f_entry 1;
  while !changed do
    changed := false;
    List.iter
      (fun p ->
        let base = if p = facts.Check.f_entry then 1 else 0 in
        let total =
          List.fold_left
            (fun acc (forker, target, w) ->
              if target = p then acc + (w * get forker) else acc)
            base weighted
        in
        let total = Stdlib.min 2 total in
        if total <> get p then begin
          Hashtbl.replace mult p total;
          changed := true
        end)
      procs
  done;
  get

(* --- conflict detection ----------------------------------------------- *)

type sample = Word of int | Page of int

let first_word_in_pages words pages =
  let pages = Array.of_list pages in
  List.find_opt
    (fun w -> Races.mem_sorted (w lsr Races.page_bits) pages)
    words

(* Overlap between one side's writes (words + pages) and the other
   side's accesses, word-precise entries compared at word granularity
   and page-coarse entries at page granularity. *)
let region_overlap (w_words, w_pages) (o_words, o_pages) =
  match Races.common w_words o_words with
  | Some w -> Some (Word w)
  | None -> (
    match first_word_in_pages w_words o_pages with
    | Some w -> Some (Page (w lsr Races.page_bits))
    | None -> (
      match first_word_in_pages o_words w_pages with
      | Some w -> Some (Page (w lsr Races.page_bits))
      | None -> (
        match Races.common w_pages o_pages with
        | Some p -> Some (Page p)
        | None -> None)))

(* First write-involved overlap between two summaries:
   [(kind1, kind2, sample)]. *)
let conflict (s1 : Races.summary) (s2 : Races.summary) =
  match
    region_overlap (s1.Races.w_words, s1.Races.w_pages)
      (s2.Races.w_words, s2.Races.w_pages)
  with
  | Some sm -> Some ("write", "write", sm)
  | None -> (
    match
      region_overlap (s1.Races.w_words, s1.Races.w_pages)
        (s2.Races.r_words, s2.Races.r_pages)
    with
    | Some sm -> Some ("write", "read", sm)
    | None -> (
      match
        region_overlap (s2.Races.w_words, s2.Races.w_pages)
          (s1.Races.r_words, s1.Races.r_pages)
      with
      | Some sm -> Some ("read", "write", sm)
      | None -> None))

let shares_known_lock l1 l2 =
  List.exists
    (function
      | Check.Lk k -> List.mem (Check.Lk k) l2
      | Check.Lunk -> false)
    l1

let lockset_str locks =
  Printf.sprintf "{%s}"
    (String.concat ","
       (List.rev_map
          (function Check.Lk m -> Printf.sprintf "m%d" m | Check.Lunk -> "m?")
          locks))

let sample_str = function
  | Word w -> Printf.sprintf "word %d" w
  | Page p ->
    Printf.sprintf "words [%d..%d]" (p lsl Races.page_bits)
      (((p + 1) lsl Races.page_bits) - 1)

(* --- the pass --------------------------------------------------------- *)

let races (prog : Vm.Isa.program) (facts : Check.facts) =
  let mult = multiplicities prog facts in
  let sites =
    facts.Check.f_accesses
    |> List.filter (fun (p, _, _, cpr, s) ->
           p <> facts.Check.f_entry && mult p >= 1 && cpr = 0
           && not (Races.no_accesses s))
    |> Array.of_list
  in
  let out = ref [] in
  let n_out = ref 0 in
  let seen : (string * int * string * int, unit) Hashtbl.t =
    Hashtbl.create 16
  in
  let n = Array.length sites in
  (try
     for i = 0 to n - 1 do
       let p1, pc1, locks1, _, s1 = sites.(i) in
       for j = i to n - 1 do
         let p2, pc2, locks2, _, s2 = sites.(j) in
         let concurrent = p1 <> p2 || mult p1 >= 2 in
         if concurrent && not (shares_known_lock locks1 locks2) then
           match conflict s1 s2 with
           | None -> ()
           | Some (k1, k2, sm) ->
             let key = (p1, pc1, p2, pc2) in
             if not (Hashtbl.mem seen key) then begin
               Hashtbl.replace seen key ();
               let how =
                 if p1 = p2 && pc1 = pc2 then
                   Printf.sprintf
                     "two concurrent instances of %s execute this %s" p1 k1
                 else
                   Printf.sprintf "%s at %s.%d (lockset %s) and %s at %s.%d \
                                   (lockset %s) can run concurrently"
                     k1 p1 pc1 (lockset_str locks1) k2 p2 pc2
                     (lockset_str locks2)
               in
               let d =
                 Diagnostic.make ~severity:Diagnostic.Error
                   ~kind:Diagnostic.Race_unprotected ~proc:p1 ~pc:pc1
                   ~instr:"work"
                   (Printf.sprintf
                      "possible data race on %s: %s with no common lock \
                       (%s vs %s) — an untracked dependence, so selective \
                       squash cannot be trusted here"
                      (sample_str sm) how (lockset_str locks1)
                      (lockset_str locks2))
               in
               out := d :: !out;
               incr n_out;
               if !n_out >= max_reports then raise Stdlib.Exit
             end
       done
     done
   with Stdlib.Exit -> ());
  List.rev !out

let program prog =
  let diags, facts = Check.program_facts prog in
  List.sort Diagnostic.compare (races prog facts @ diags)
