(* Abstract register values and probe evaluation of closure-typed
   operands.

   The virtual ISA identifies synchronization objects with closures
   ([m : regs -> int]) rather than literal fields, so a static analysis
   must recover the id without executing the program. Two mechanisms
   combine here:

   - bounded constant propagation: registers hold [Known v] or [Top];
     [Work] bodies are probe-executed against a sandboxed {!Vm.Env.t}
     (writes land in flat scratch tables, reads of untouched state
     return probe-dependent fillers), so pure register moves like
     [Builder.set_reg] propagate exactly while anything data-dependent
     on shared memory, files or the tid demotes to [Top];

   - probe evaluation of id closures: evaluate the closure under two
     register vectors that agree on [Known] registers and differ on every
     [Top] register (and under two memory fillers); agreement means the
     closure's result is independent of everything unknown, so the value
     is exact — disagreement demotes to [Top]. This resolves the
     ubiquitous [fun _ -> k] ids regardless of register knowledge.

   Probing runs workload OCaml code at lint time. That code is the same
   code the interpreter runs, restricted to the [Env] interface, so it is
   side-effect-free outside the sandbox. Termination, however, cannot be
   assumed cheap: a body whose loop bound is data-dependent (e.g.
   [for k = 1 to len] where [len] is an unknown register) sees a filler
   value in the millions and would burn seconds per probe. Every sandbox
   therefore carries a fuel budget counted in [Env] operations; running
   out aborts the probe, which {!Races.probe_work} folds to all-[Top] —
   the sound answer for a body whose effects we could not afford to
   observe. *)

type t = Known of int | Top

let equal a b =
  match (a, b) with
  | Known x, Known y -> x = y
  | Top, Top -> true
  | Known _, Top | Top, Known _ -> false

let join a b = if equal a b then a else Top

let pp ppf = function
  | Known v -> Format.fprintf ppf "%d" v
  | Top -> Format.pp_print_string ppf "T"

(* Two deliberately weird, distinct filler families. A coincidental
   agreement of both probes on unknown data would mis-resolve an id; the
   fillers are large co-prime affine maps to make that vanishingly
   unlikely for the arithmetic workloads write. *)
let filler_a i = 0x5eed + (7919 * (i + 1))
let filler_b i = 0x7a11 + (104729 * (i + 1))

let concretize regs filler =
  Array.init (Array.length regs) (fun i ->
      match regs.(i) with Known v -> v | Top -> filler i)

let top_regs n = Array.make n Top

let all_known regs =
  if Array.for_all (function Known _ -> true | Top -> false) regs then
    Some (concretize regs filler_a)
  else None

let eval_int regs f =
  match (f (concretize regs filler_a), f (concretize regs filler_b)) with
  | a, b when a = b -> Known a
  | _ -> Top
  | exception _ -> Top

let eval_int_array regs f =
  match (f (concretize regs filler_a), f (concretize regs filler_b)) with
  | a, b when Array.length a = Array.length b ->
    Some
      (Array.init (Array.length a) (fun i ->
           if a.(i) = b.(i) then Known a.(i) else Top))
  | _ -> None
  | exception _ -> None

(* Branch folding must never guess: a comparison can collapse two
   disagreeing probes onto the same boolean (e.g. [r.(2) < 4] under two
   huge fillers), which would hide a genuinely reachable path. Fold only
   when every register is exactly known. *)
let eval_cond regs f =
  match all_known regs with
  | None -> `Unknown
  | Some concrete -> (
    match f concrete with
    | true -> `True
    | false -> `False
    | exception _ -> `Unknown)

exception Out_of_fuel

(* Generous for every honest per-instruction body (the shipped workloads
   touch at most a few thousand words per [Work]), tiny next to the
   ~10^6-iteration loops a filler-valued bound produces. *)
let probe_fuel = 50_000

(* The probe sandbox's tables. One lint run ({!Check.driver}) owns one
   sandbox, every probe resets it, and nothing of it outlives the run. *)
type sandbox = {
  written : Flat.t;  (* address -> word written by this probe *)
  fds : Flat.t;  (* fd -> its index into [files] *)
  mutable files : Flat.t array;  (* per fd: offset -> word written *)
}

let sandbox () = { written = Flat.create (); fds = Flat.create (); files = [||] }

(* The table of a file first written in this probe: the next slot of
   [files], reset for its new fd. *)
let claim_file sb n =
  if n = Array.length sb.files then
    sb.files <-
      Array.init (Stdlib.max 4 (2 * n)) (fun i ->
          if i < n then sb.files.(i) else Flat.create ());
  Flat.reset sb.files.(n)

(* Sandboxed environment for probe-executing a [Work] body: writes are
   remembered (so read-after-write within one body is consistent), reads
   of untouched addresses and all file contents are salt-dependent, and
   the tid differs between probes so tid-derived values demote to Top.
   Every operation burns fuel; exhaustion raises {!Out_of_fuel}. Making
   the environment resets [sb], so it serves one probe at a time. *)
let sandbox_env ?(on_read = fun _ -> ()) ?(on_write = fun _ -> ()) sb ~salt
    regs =
  Flat.reset sb.written;
  Flat.reset sb.fds;
  let h x = ((x * 0x9E3779B9) + salt) land 0x3FFF_FFFF in
  let fuel = ref probe_fuel in
  let burn () =
    decr fuel;
    if !fuel < 0 then raise Out_of_fuel
  in
  {
    Vm.Env.tid = salt land 0xFFF;
    regs;
    read =
      (fun a ->
        burn ();
        on_read a;
        match Flat.find sb.written a with
        | -1 -> h (a + 1)
        | i -> Flat.value sb.written i);
    write =
      (fun a v ->
        burn ();
        on_write a;
        Flat.replace sb.written a v);
    file_size =
      (fun fd ->
        burn ();
        h (fd + 0x1001) land 0xFFF);
    file_read =
      (fun fd ~off ->
        burn ();
        match Flat.find sb.fds fd with
        | -1 -> h ((fd * 65599) + off)
        | j -> (
          let f = sb.files.(Flat.value sb.fds j) in
          match Flat.find f off with
          | -1 -> h ((fd * 65599) + off)
          | i -> Flat.value f i));
    file_write =
      (fun fd ~off v ->
        burn ();
        let n = Flat.length sb.fds in
        let idx = Flat.value sb.fds (Flat.slot sb.fds fd ~init:n) in
        if idx = n then claim_file sb n;
        Flat.replace sb.files.(idx) off v);
  }
