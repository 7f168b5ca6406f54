(* Host-speed calibration. The benchmark's host is a 2-vCPU VM whose
   CPUs are shared with other guests, and it runs at two speeds: for
   periods of seconds to minutes everything takes about 1.7 times as
   long. Best-of-repeats inside a run cannot remove a slowdown that
   covers the whole run, and such runs set the spread between runs.

   So the benchmark also times a fixed reference computation, which
   shares no code with the system under test, and reports end-to-end
   times divided by the host's slowdown: the reference's time over
   [nominal_s]. They are host times at the reference host's fast speed.
   Per-layer times stay raw; bench.host_slowdown gives the factor.

   The reference allocates, as the simulator does: on that host, in its
   slow state an allocating reference took 1.69 times as long while
   sim-steady's rate fell by 1.65 times, whereas allocation-free
   references, whether their working set was 64 KB or 4 MB, slowed by
   only 1.1 times. It runs right after a full major collection, so its
   time does not depend on the garbage of the work before it. *)

let kernel () =
  let a = Array.make 8192 0 in
  let h = Hashtbl.create 4096 in
  let acc = ref 0 and l = ref [] in
  for i = 0 to 150_000 do
    let k = (i * 7919) land 8191 in
    a.(k) <- a.(k) + i;
    acc := !acc + a.((k * 31) land 8191);
    if i land 3 = 0 then Hashtbl.replace h (k land 2047) (i, !acc);
    if i land 1 = 0 then
      l := (i, k) :: (match !l with _ :: t when i land 255 = 0 -> t | l -> l);
    if i land 4095 = 0 then l := []
  done;
  Sys.opaque_identity (!acc + Hashtbl.length h + List.length !l)

(* The kernel's best time on the reference host (2 vCPUs, OCaml 5.1.1)
   in its fast state. *)
let nominal_s = 1.35e-3

let samples : float list ref = ref []  (* every slowdown measured *)

(* The host's slowdown now: the best of three runs of the kernel, from a
   collected heap, over [nominal_s]. The heap is collected again after,
   so the kernel's garbage does not fall on the caller's next work. *)
let measure () =
  let once () =
    let t0 = Spans.now () in
    ignore (kernel ());
    Spans.secs t0 (Spans.now ())
  in
  Gc.full_major ();
  let best = Float.min (once ()) (Float.min (once ()) (once ())) in
  Gc.full_major ();
  let s = best /. nominal_s in
  samples := s :: !samples;
  s

(* The run's slowdown: its fastest sample. End-to-end times are each
   operation's best over a run's passes, so they are divided by the
   host's best speed over the run too. *)
let slowdown () = if !samples = [] then 1.0 else List.fold_left Float.min infinity !samples
