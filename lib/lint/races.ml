(* Per-[Work]-block may-read/may-write address summaries.

   The race probe ({!probe_work}) executes every [Work] body in the
   {!Absval} sandbox twice, under two filler families that agree on
   [Known] registers and disagree on everything unknown. Recording the
   addresses each probe touches classifies every access by how much of
   it the analysis actually resolved:

   - both probes touch the same address: the address is a function of
     [Known] state only, so the access is *word-precise*;
   - the probes touch different addresses but the same 2^{!page_bits}
     word page (a [Known] base plus a small unknown offset): the access
     is *page-coarse*;
   - the probes diverge entirely (the address is data-dependent on a
     filler — shared memory, a file, the tid, or a [Top] register): the
     access is *unknown* and is dropped from conflict detection, only
     its count is kept.

   Dropping unknown accesses is a deliberate soundness trade: a
   filler-dependent address is almost always thread-private indexing
   (per-worker tables, chunked output slots, allocator blocks), and
   treating it as may-touch-anything would flag every data-parallel
   workload. The dynamic sanitizer ({!Exec.Tsan}) covers the dropped
   accesses with exact addresses at run time; the cross-validation suite
   holds the two sides against each other. *)

(* Matches the interpreter's {!Vm.Mem} dirty-page granularity. *)
let page_bits = 6

type summary = {
  w_words : int list;  (* sorted word-precise may-writes *)
  r_words : int list;  (* sorted word-precise may-reads *)
  w_pages : int list;  (* sorted page-coarse may-writes *)
  r_pages : int list;
  unknown_writes : int;  (* probe-divergent, dropped from conflicts *)
  unknown_reads : int;
  incomplete : bool;  (* a probe aborted: effects beyond these unseen *)
}

let empty_summary =
  {
    w_words = [];
    r_words = [];
    w_pages = [];
    r_pages = [];
    unknown_writes = 0;
    unknown_reads = 0;
    incomplete = false;
  }

let no_accesses s =
  s.w_words = [] && s.r_words = [] && s.w_pages = [] && s.r_pages = []

type probe = {
  regs : Absval.t array;
      (* post-state registers: [Known] where both probes agree, all-[Top]
         after an abort *)
  summary : summary;
  fuel_exhausted : bool;
}

(* The race probe's tables, owned by one lint run ({!Check.driver}) like
   the sandbox they sit beside: per probe, the addresses its body touched,
   valued [read_bit] lor [write_bit]. *)
type scratch = { sandbox : Absval.sandbox; acc_a : Flat.t; acc_b : Flat.t }

let scratch () =
  { sandbox = Absval.sandbox (); acc_a = Flat.create (); acc_b = Flat.create () }

let read_bit = 1
let write_bit = 2

(* The sorted (reads, writes) that probes A and B recorded in the last
   {!probe_work} on [sc]. *)
let recorded sc =
  let sets t =
    (Flat.sorted_keys t ~mask:read_bit, Flat.sorted_keys t ~mask:write_bit)
  in
  (sets sc.acc_a, sets sc.acc_b)

(* --- sorted-int-list set algebra -------------------------------------- *)

let rec inter a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | x :: xs, y :: ys ->
    if x = y then x :: inter xs ys
    else if x < y then inter xs b
    else inter a ys

(* [a] minus [b]. *)
let rec diff a b =
  match (a, b) with
  | [], _ -> []
  | _, [] -> a
  | x :: xs, y :: ys ->
    if x = y then diff xs ys
    else if x < y then x :: diff xs b
    else diff a ys

(* First common element, for diagnostics. *)
let rec common a b =
  match (a, b) with
  | [], _ | _, [] -> None
  | x :: xs, y :: ys ->
    if x = y then Some x
    else if x < y then common xs b
    else common a ys

(* Binary search of a sorted array. *)
let mem_sorted x a =
  let rec go lo hi =
    lo < hi
    &&
    let mid = lo + ((hi - lo) / 2) in
    let y = a.(mid) in
    y = x || if y < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* --- the dual probe --------------------------------------------------- *)

(* Classify one access class (reads or writes) of the two probes into
   word-precise / page-coarse / unknown, clamped to the program's memory
   so filler-derived garbage addresses cannot collide into findings. *)
let classify ~mem_words sa sb =
  let words =
    inter sa sb |> List.filter (fun a -> a >= 0 && a < mem_words)
  in
  let la = diff sa words and lb = diff sb words in
  let max_page = (mem_words + (1 lsl page_bits) - 1) lsr page_bits in
  let pages l =
    List.map (fun a -> a lsr page_bits) l
    |> List.sort_uniq Int.compare
    |> List.filter (fun p -> p >= 0 && p < max_page)
  in
  let shared_pages = inter (pages la) (pages lb) in
  let shared = Array.of_list shared_pages in
  let unknown =
    List.length
      (List.filter (fun a -> not (mem_sorted (a lsr page_bits) shared)) la)
  in
  (words, shared_pages, unknown)

(* Probe-execute a [Work] body twice in [sc]'s sandbox: under the two
   filler families and salts, folding any exception to all-[Top]
   registers, and running the second probe only if the first returned.
   When [record], note the addresses each probe touches; report whether
   an abort was fuel exhaustion. *)
let probe_work sc ?(record = true) ~mem_words regs run =
  let ra = Absval.concretize regs Absval.filler_a
  and rb = Absval.concretize regs Absval.filler_b in
  Flat.reset sc.acc_a;
  Flat.reset sc.acc_b;
  let fuel = ref false in
  let go salt cregs acc =
    let env =
      if record then
        Absval.sandbox_env
          ~on_read:(fun a -> Flat.add_bits acc a read_bit)
          ~on_write:(fun a -> Flat.add_bits acc a write_bit)
          sc.sandbox ~salt cregs
      else Absval.sandbox_env sc.sandbox ~salt cregs
    in
    match run env with
    | () -> true
    | exception Absval.Out_of_fuel ->
      fuel := true;
      false
    | exception _ -> false
  in
  let ok_a = go 0x5eed0 ra sc.acc_a in
  let ok_b = ok_a && go 0x7a110 rb sc.acc_b in
  let regs' =
    if ok_a && ok_b then
      Array.init (Array.length regs) (fun i ->
          if ra.(i) = rb.(i) then Absval.Known ra.(i) else Absval.Top)
    else Absval.top_regs (Array.length regs)
  in
  let summary =
    if not record then empty_summary
    else if ok_a && ok_b then begin
      let (reads_a, writes_a), (reads_b, writes_b) = recorded sc in
      let w_words, w_pages, unknown_writes =
        classify ~mem_words writes_a writes_b
      in
      let r_words, r_pages, unknown_reads =
        classify ~mem_words reads_a reads_b
      in
      { w_words; r_words; w_pages; r_pages; unknown_writes; unknown_reads;
        incomplete = false }
    end
    else
      (* An aborted probe leaves no cross-probe agreement to classify:
         count what probe A saw as unknown and flag the hole. *)
      {
        empty_summary with
        unknown_writes = Flat.count_keys sc.acc_a ~mask:write_bit;
        unknown_reads = Flat.count_keys sc.acc_a ~mask:read_bit;
        incomplete = true;
      }
  in
  { regs = regs'; summary; fuel_exhausted = !fuel }
