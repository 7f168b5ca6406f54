(* Unit tests for the ordering structures: the token policies and the
   reorder list's retirement edge cases. *)

let check = Alcotest.(check int)
let check_opt = Alcotest.(check (option int))

let grant t =
  match Gprs.Order.holder t with
  | Some tid ->
    Gprs.Order.advance t ~granted:tid;
    tid
  | None -> Alcotest.fail "no holder"

let test_round_robin_rotation () =
  let t = Gprs.Order.create Gprs.Order.Round_robin ~group_weights:[| 1 |] in
  for tid = 0 to 2 do
    Gprs.Order.add_thread t ~tid ~group:0
  done;
  Alcotest.(check (list int))
    "cycles in creation order"
    [ 0; 1; 2; 0; 1; 2 ]
    (List.init 6 (fun _ -> grant t))

let test_round_robin_ignores_groups () =
  let t = Gprs.Order.create Gprs.Order.Round_robin ~group_weights:[| 1; 1 |] in
  Gprs.Order.add_thread t ~tid:0 ~group:1;
  Gprs.Order.add_thread t ~tid:1 ~group:0;
  Alcotest.(check (list int)) "one rotation" [ 0; 1; 0 ]
    (List.init 3 (fun _ -> grant t))

let test_skip_ineligible () =
  let t = Gprs.Order.create Gprs.Order.Round_robin ~group_weights:[| 1 |] in
  for tid = 0 to 2 do
    Gprs.Order.add_thread t ~tid ~group:0
  done;
  Gprs.Order.set_eligible t 1 false;
  Alcotest.(check (list int)) "skips sleeper" [ 0; 2; 0 ]
    (List.init 3 (fun _ -> grant t));
  Gprs.Order.set_eligible t 1 true;
  check "sleeper returns" 1 (grant t)

let test_none_when_all_ineligible () =
  let t = Gprs.Order.create Gprs.Order.Round_robin ~group_weights:[| 1 |] in
  Gprs.Order.add_thread t ~tid:0 ~group:0;
  Gprs.Order.set_eligible t 0 false;
  check_opt "none" None (Gprs.Order.holder t)

let test_remove_thread () =
  let t = Gprs.Order.create Gprs.Order.Round_robin ~group_weights:[| 1 |] in
  for tid = 0 to 2 do
    Gprs.Order.add_thread t ~tid ~group:0
  done;
  ignore (grant t);
  (* token now past 0 *)
  Gprs.Order.remove_thread t 1;
  Alcotest.(check (list int)) "1 gone" [ 2; 0; 2 ] (List.init 3 (fun _ -> grant t));
  check "live" 2 (Gprs.Order.live_count t)

let test_balance_aware_alternates_groups () =
  (* The paper's Pbzip2 shape: group 0 = reader, group 1 = compressors.
     Fig 7(b): turns go TH0, TH1, TH0, TH2, TH0, TH1 ... *)
  let t = Gprs.Order.create Gprs.Order.Balance_aware ~group_weights:[| 1; 1 |] in
  Gprs.Order.add_thread t ~tid:0 ~group:0;
  Gprs.Order.add_thread t ~tid:1 ~group:1;
  Gprs.Order.add_thread t ~tid:2 ~group:1;
  Alcotest.(check (list int))
    "alternation with intra-group rotation"
    [ 0; 1; 0; 2; 0; 1 ]
    (List.init 6 (fun _ -> grant t))

let test_balance_aware_skips_empty_group () =
  let t = Gprs.Order.create Gprs.Order.Balance_aware ~group_weights:[| 1; 1; 1 |] in
  Gprs.Order.add_thread t ~tid:0 ~group:0;
  Gprs.Order.add_thread t ~tid:1 ~group:2;
  Alcotest.(check (list int)) "group 1 empty" [ 0; 1; 0; 1 ]
    (List.init 4 (fun _ -> grant t))

let test_weighted_gives_extra_turns () =
  (* Weight 2 for group 0: two reader turns per compressor turn. *)
  let t = Gprs.Order.create Gprs.Order.Weighted ~group_weights:[| 2; 1 |] in
  Gprs.Order.add_thread t ~tid:0 ~group:0;
  Gprs.Order.add_thread t ~tid:1 ~group:1;
  Gprs.Order.add_thread t ~tid:2 ~group:1;
  Alcotest.(check (list int))
    "2:1 turn ratio"
    [ 0; 0; 1; 0; 0; 2 ]
    (List.init 6 (fun _ -> grant t))

let test_weighted_min_weight_one () =
  let t = Gprs.Order.create Gprs.Order.Weighted ~group_weights:[| 0; 1 |] in
  Gprs.Order.add_thread t ~tid:0 ~group:0;
  Gprs.Order.add_thread t ~tid:1 ~group:1;
  (* weight 0 is clamped to 1 *)
  Alcotest.(check (list int)) "clamped" [ 0; 1; 0; 1 ]
    (List.init 4 (fun _ -> grant t))

let test_holder_is_pure () =
  let t = Gprs.Order.create Gprs.Order.Round_robin ~group_weights:[| 1 |] in
  Gprs.Order.add_thread t ~tid:0 ~group:0;
  Gprs.Order.add_thread t ~tid:1 ~group:0;
  check_opt "peek" (Some 0) (Gprs.Order.holder t);
  check_opt "peek again" (Some 0) (Gprs.Order.holder t)

let test_late_join_enters_rotation () =
  let t = Gprs.Order.create Gprs.Order.Round_robin ~group_weights:[| 1 |] in
  Gprs.Order.add_thread t ~tid:0 ~group:0;
  ignore (grant t);
  Gprs.Order.add_thread t ~tid:1 ~group:0;
  Alcotest.(check (list int)) "new thread joins" [ 1; 0; 1 ]
    (List.init 3 (fun _ -> grant t))

(* --- ROL retirement edges ------------------------------------------- *)

let dummy_saved =
  Vm.Tcb.copy_state
    (Vm.Tcb.create ~tid:0 ~group:0
       ~proc:{ Vm.Isa.pname = "p"; code = [| Vm.Isa.Exit |] }
       ~args:[||])

let mk_sub id = Gprs.Subthread.make ~id ~tid:0 ~now:0 ~saved:dummy_saved

let ids subs = List.map (fun s -> s.Gprs.Subthread.id) subs

let test_rol_squashed_head_blocks () =
  let rol = Gprs.Rol.create () in
  let subs = List.init 3 mk_sub in
  List.iter (Gprs.Rol.insert rol) subs;
  List.iteri
    (fun i s ->
      s.Gprs.Subthread.status <-
        (if i = 0 then Gprs.Subthread.Squashed else Gprs.Subthread.Complete 10))
    subs;
  Alcotest.(check (list int))
    "squashed head retires nothing" []
    (ids (Gprs.Rol.retire_ready rol ~now:10_000 ~latency:10));
  Gprs.Rol.remove rol 0;
  Alcotest.(check (list int))
    "suffix retires once the head is gone" [ 1; 2 ]
    (ids (Gprs.Rol.retire_ready rol ~now:10_000 ~latency:10))

let test_rol_latency_boundary () =
  let rol = Gprs.Rol.create () in
  let s = mk_sub 0 in
  Gprs.Rol.insert rol s;
  s.Gprs.Subthread.status <- Gprs.Subthread.Complete 100;
  Alcotest.(check (list int))
    "one cycle early: still in the detection window" []
    (ids (Gprs.Rol.retire_ready rol ~now:149 ~latency:50));
  Alcotest.(check (list int))
    "exactly latency cycles after completion: retires" [ 0 ]
    (ids (Gprs.Rol.retire_ready rol ~now:150 ~latency:50))

let test_rol_hw_across_squash () =
  let rol = Gprs.Rol.create () in
  List.iter (fun id -> Gprs.Rol.insert rol (mk_sub id)) [ 0; 1; 2; 3; 4 ];
  check "hw after first wave" 5 (Gprs.Rol.max_size rol);
  (* Squash-removal shrinks the live set but not the high water. *)
  List.iter (Gprs.Rol.remove rol) [ 0; 1; 2; 3 ];
  check "live after squash" 1 (Gprs.Rol.size rol);
  check "hw survives squash" 5 (Gprs.Rol.max_size rol);
  (* Re-inserted work uses fresh (monotonic) ids and pushes hw further. *)
  List.iter (fun id -> Gprs.Rol.insert rol (mk_sub id)) [ 5; 6; 7; 8; 9; 10 ];
  check "live" 7 (Gprs.Rol.size rol);
  check "hw high water" 7 (Gprs.Rol.max_size rol);
  check_opt "head skips squashed slots" (Some 4) (Gprs.Rol.min_live_id rol)

let test_rol_ring_growth () =
  let rol = Gprs.Rol.create () in
  (* Push the live span well past the initial capacity. *)
  for id = 0 to 599 do
    Gprs.Rol.insert rol (mk_sub id)
  done;
  for id = 0 to 599 do
    if id mod 2 = 0 then Gprs.Rol.remove rol id
  done;
  check "live" 300 (Gprs.Rol.size rol);
  check_opt "head" (Some 1) (Gprs.Rol.min_live_id rol);
  Alcotest.(check bool) "find across growth" true (Gprs.Rol.find rol 599 <> None);
  Alcotest.(check (list int))
    "suffix walk" [ 597; 599 ]
    (ids (Gprs.Rol.younger_than rol 595));
  Alcotest.check_raises "below retired horizon"
    (Invalid_argument "Rol.insert: id below retired horizon") (fun () ->
      Gprs.Rol.insert rol (mk_sub 0))

let suite =
  [
    Alcotest.test_case "round-robin rotation" `Quick test_round_robin_rotation;
    Alcotest.test_case "round-robin ignores groups" `Quick test_round_robin_ignores_groups;
    Alcotest.test_case "skip ineligible" `Quick test_skip_ineligible;
    Alcotest.test_case "none when all ineligible" `Quick test_none_when_all_ineligible;
    Alcotest.test_case "remove thread" `Quick test_remove_thread;
    Alcotest.test_case "balance-aware alternation" `Quick test_balance_aware_alternates_groups;
    Alcotest.test_case "balance-aware skips empty group" `Quick test_balance_aware_skips_empty_group;
    Alcotest.test_case "weighted extra turns" `Quick test_weighted_gives_extra_turns;
    Alcotest.test_case "weighted clamps zero" `Quick test_weighted_min_weight_one;
    Alcotest.test_case "holder is pure" `Quick test_holder_is_pure;
    Alcotest.test_case "late join" `Quick test_late_join_enters_rotation;
    Alcotest.test_case "rol: squashed head blocks retirement" `Quick test_rol_squashed_head_blocks;
    Alcotest.test_case "rol: detection-latency boundary" `Quick test_rol_latency_boundary;
    Alcotest.test_case "rol: high water across squash" `Quick test_rol_hw_across_squash;
    Alcotest.test_case "rol: ring growth" `Quick test_rol_ring_growth;
  ]
