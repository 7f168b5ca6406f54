(* Pieces every workload shares: the correctness tally, best-of-repeats
   timing, the pass loop, set-up repetition and percentiles. *)

(* Operations attempted and failed. DNC is an outcome, not a failure:
   only a wrong answer or an error fails, except a wrong answer of the
   known defect below, which is counted apart in [known]. *)
type tally = {
  mutable ops : int;
  mutable failed : int;
  mutable failures : string list;  (* newest first, capped *)
  known : (string, unit) Hashtbl.t;  (* distinct known-defect wrong answers *)
}

let tally () = { ops = 0; failed = 0; failures = []; known = Hashtbl.create 8 }

(* GPRS under exceptions completes with a wrong digest on these programs
   at the sizes sim-faulty runs (README.md, "Known defects"). A benchmark
   workload may not fail, so such an answer is counted apart, once per
   distinct scenario and answer whatever the number of passes, and it is
   hashed into sim.fingerprint like every other answer: a change that
   fixes the defect or makes it more frequent changes both, and agree.py
   requires both to match exactly. A wrong answer from any other
   scenario fails. *)
let known_defect ~workload ~gprs_faulty =
  gprs_faulty && List.mem workload [ "canneal"; "histogram" ]

(* Operations recorded while spans are on: GC cost is reported per op of
   the traced window. *)
let traced_ops = ref 0

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.failures < 8 then t.failures <- msg :: t.failures

let record ?(known = false) t failure =
  t.ops <- t.ops + 1;
  if !Spans.on then incr traced_ops;
  match failure with
  | Some msg when known -> Hashtbl.replace t.known msg ()
  | _ -> Option.iter (fail t) failure

let known_wrong t = List.sort compare (Hashtbl.fold (fun m () acc -> m :: acc) t.known [])

(* Best-of-repeats timing. Every pass repeats the same operations on the
   same inputs, and an operation's host time is its minimum over the
   repeats. On a shared host interference only ever adds time: timing
   one fixed GPRS run back to back for 40 s, per-second means moved by up
   to 50% while per-second minima stayed within 5%. [latency] is what
   the workload's latency metrics report, [total] everything the
   operation costs (throughput); traced repeats are kept apart. *)
type best = {
  latency : (string, float) Hashtbl.t;
  total : (string, float) Hashtbl.t;
  traced : (string, float) Hashtbl.t;
}

let best () = { latency = Hashtbl.create 64; total = Hashtbl.create 64; traced = Hashtbl.create 64 }

let keep tbl k v =
  match Hashtbl.find_opt tbl k with
  | Some x when x <= v -> ()
  | _ -> Hashtbl.replace tbl k v

let observe b key ~latency ~total =
  if !Spans.on then keep b.traced key total
  else begin
    keep b.latency key latency;
    keep b.total key total
  end

let values tbl = Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let best_ms b =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, 1000.0 *. v) :: acc) b.latency [])

let sum = List.fold_left ( +. ) 0.0

(* Operations per second of best-case host time. *)
let best_rate b =
  let t = sum (values b.total) in
  if t > 0.0 then float_of_int (Hashtbl.length b.total) /. t else 0.0

(* Traced over untraced best times, on the operations timed both ways. *)
let trace_overhead b =
  let tr, un =
    Hashtbl.fold
      (fun k v (tr, un) ->
        match Hashtbl.find_opt b.total k with
        | Some u -> (tr +. v, un +. u)
        | None -> (tr, un))
      b.traced (0.0, 0.0)
  in
  if un > 0.0 then (tr /. un) -. 1.0 else 0.0

type result = {
  setup_s : float list;  (* one sample per set-up repetition *)
  tally : tally;
  ops_per_s : float;  (* the workload's throughput, untraced *)
  latency_s : float list;  (* the workload's per-op latency samples *)
  peak_rss_mb : float;  (* of the process under test *)
  named : (string * string * float) list;
      (* the workload's own end-to-end names, as (name, unit, value) *)
  layer : (string * float) list;  (* per-layer values this workload measures *)
  fingerprint : string;
  op_best_ms : (string * float) list;  (* every operation's best latency *)
  sizes : (string * string) list;
  notes : string list;
}

(* Compiled superblock cells per distinct program built (Vm.Block). *)
let superblocks : (string, int) Hashtbl.t = Hashtbl.create 32

let traced_if cond f =
  if not cond then f ()
  else begin
    Spans.start ();
    Fun.protect ~finally:Spans.stop f
  end

(* Whole passes until the next one would overrun [seconds]; at least one.
   A traced run alternates untraced and traced passes, at least one of
   each, so one process measures the tracing overhead; only the traced
   passes record spans, under a "bench.pass" root. [between] runs after
   each pass, untimed, with the share of [seconds] elapsed. Returns the
   number of passes run. *)
let passes ~trace ~seconds ?(between = ignore) f =
  let start = Spans.now () in
  let rec go p last =
    let elapsed = Spans.secs start (Spans.now ()) in
    let must = p = 0 || (trace && p < 2) in
    if (not must) && elapsed +. last > seconds then p
    else begin
      let (), dt =
        traced_if (trace && p mod 2 = 1) (fun () -> Spans.timed "bench.pass" (fun () -> f p))
      in
      between (Spans.secs start (Spans.now ()) /. seconds);
      go (p + 1) dt
    end
  in
  go 0 0.0

(* Set-up is timed [setup_reps] times and reported as the median. The
   first repetition runs before the passes, traced in a traced run, and
   its state is the one measured; the others run between passes, spread
   evenly over the passes' time, so the median spans the run instead of
   one burst of interference, and so do the host-speed samples taken
   with them. Each repetition is divided by the host's slowdown measured
   just before it (Calib), which also leaves the heap fully collected, so
   a repetition does not pay for the garbage of the pass before it. *)
let setup_reps = 9

let spread_setup ~reps ~trace ?(dispose = ignore) setup =
  let timed ~traced =
    let slowdown = Calib.measure () in
    let v, dt = traced_if traced (fun () -> Spans.timed "bench.setup" setup) in
    (v, dt /. slowdown)
  in
  let state, first = timed ~traced:trace in
  let times = ref [ first ] and left = ref (reps - 1) in
  let one () =
    decr left;
    let extra, dt = timed ~traced:false in
    dispose extra;
    times := dt :: !times
  in
  (* the k-th of the [reps - 1] others is due [k / reps] of the way *)
  let again progress =
    while !left > 0 && progress *. float_of_int reps >= float_of_int (reps - !left) do
      one ()
    done
  in
  let finish () =
    while !left > 0 do
      one ()
    done;
    List.rev !times
  in
  (state, again, finish)

(* Nearest-rank percentile; 0 on an empty sample. *)
let percentile p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort compare a;
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(Stdlib.max 0 (Stdlib.min (n - 1) k))
  end

let median xs = percentile 50.0 xs

(* FNV-1a, 64 bit: the run fingerprint hashes every completed
   operation's (key, digest, cycles, dnc) line of the first pass. *)
let fnv_init = 0xcbf29ce484222325L

let fnv h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let hex h = Printf.sprintf "%016Lx" h

(* Peak resident set ("VmHWM") of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> float_of_int kb /. 1024.0
        | None -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan
