(* Unit tests for the exception injector. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let mk ?(rate = 2.0) ?(process = Faults.Injector.Periodic) ?(seed = 1) () =
  Faults.Injector.create
    (Faults.Injector.config ~process ~seed rate)
    ~n_contexts:8 ~cycles_per_second:1_000_000

let take n inj =
  let rec go acc inj k =
    if k = 0 then List.rev acc
    else
      match Faults.Injector.next inj with
      | inj, Some ev -> go (ev :: acc) inj (k - 1)
      | _, None -> List.rev acc
  in
  go [] inj n

let test_disabled () =
  let inj =
    Faults.Injector.create Faults.Injector.default_config ~n_contexts:4
      ~cycles_per_second:1_000_000
  in
  let _, ev = Faults.Injector.next inj in
  checkb "no events" true (ev = None)

let test_periodic_spacing () =
  let evs = take 4 (mk ~rate:2.0 ()) in
  Alcotest.(check (list int))
    "every half second"
    [ 500_000; 1_000_000; 1_500_000; 2_000_000 ]
    (List.map (fun e -> e.Faults.Injector.occurred_at) evs)

let test_ctx_in_range () =
  let evs = take 100 (mk ~process:Faults.Injector.Poisson ()) in
  List.iter
    (fun e ->
      checkb "ctx in range" true
        (e.Faults.Injector.ctx >= 0 && e.Faults.Injector.ctx < 8))
    evs

let test_poisson_mean_rate () =
  let evs = take 2000 (mk ~rate:5.0 ~process:Faults.Injector.Poisson ()) in
  let last = List.nth evs (List.length evs - 1) in
  let span_s = float_of_int last.Faults.Injector.occurred_at /. 1_000_000.0 in
  let rate = 2000.0 /. span_s in
  checkb (Printf.sprintf "rate near 5 (%.2f)" rate) true (rate > 4.5 && rate < 5.5)

let test_deterministic () =
  let a = take 20 (mk ~process:Faults.Injector.Poisson ~seed:7 ()) in
  let b = take 20 (mk ~process:Faults.Injector.Poisson ~seed:7 ()) in
  Alcotest.(check (list int))
    "same stream"
    (List.map (fun e -> e.Faults.Injector.occurred_at) a)
    (List.map (fun e -> e.Faults.Injector.occurred_at) b)

let test_seq_numbers () =
  let evs = take 5 (mk ()) in
  Alcotest.(check (list int)) "seq" [ 0; 1; 2; 3; 4 ]
    (List.map (fun e -> e.Faults.Injector.seq) evs)

let test_monotonic_times () =
  let evs = take 50 (mk ~process:Faults.Injector.Poisson ()) in
  let rec mono = function
    | a :: (b :: _ as rest) ->
      a.Faults.Injector.occurred_at <= b.Faults.Injector.occurred_at && mono rest
    | _ -> true
  in
  checkb "monotonic" true (mono evs)

(* Pins the documented default: injector.mli, DESIGN.md and the paper's
   §3.3 sensitivity analysis all quote 40,000 cycles. Both engines read
   the one latency in [Vm.Costs]. *)
let test_default_latency () =
  check "Vm.Costs.default" 40_000
    Vm.Costs.default.Vm.Costs.detection_latency

let suite =
  [
    Alcotest.test_case "disabled" `Quick test_disabled;
    Alcotest.test_case "default detection latency is 40k" `Quick
      test_default_latency;
    Alcotest.test_case "periodic spacing" `Quick test_periodic_spacing;
    Alcotest.test_case "ctx in range" `Quick test_ctx_in_range;
    Alcotest.test_case "poisson rate" `Quick test_poisson_mean_rate;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "seq numbers" `Quick test_seq_numbers;
    Alcotest.test_case "monotonic" `Quick test_monotonic_times;
  ]
