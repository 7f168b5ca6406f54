(* Unit tests for the write-ahead log and the undo log. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_lsn_monotonic () =
  let w = Wal.create () in
  let l1 = Wal.append w ~order:0 (Wal.Alloc { addr = 1; size = 2 }) in
  let l2 = Wal.append w ~order:0 (Wal.Free { addr = 1; size = 2 }) in
  let l3 = Wal.append w ~order:1 (Wal.Thread_create { tid = 5 }) in
  checkb "increasing" true (l1 < l2 && l2 < l3)

let test_entries_for_newest_first () =
  let w = Wal.create () in
  ignore (Wal.append w ~order:0 (Wal.Alloc { addr = 1; size = 1 }));
  ignore (Wal.append w ~order:1 (Wal.Alloc { addr = 2; size = 1 }));
  ignore (Wal.append w ~order:1 (Wal.Alloc { addr = 3; size = 1 }));
  ignore (Wal.append w ~order:2 (Wal.Alloc { addr = 4; size = 1 }));
  let entries = Wal.entries_for w ~orders:(fun o -> o = 1) in
  check "two entries" 2 (List.length entries);
  match entries with
  | [ a; b ] ->
    checkb "newest first" true (a.Wal.lsn > b.Wal.lsn)
  | _ -> Alcotest.fail "unexpected shape"

let test_drop_for () =
  let w = Wal.create () in
  for i = 0 to 9 do
    ignore (Wal.append w ~order:(i mod 3) (Wal.Rol_insert { sub = i }))
  done;
  check "dropped order-1 entries" 3 (Wal.drop_for w ~orders:(fun o -> o = 1));
  check "rest live" 7 (Wal.size w)

let test_prune_below () =
  let w = Wal.create () in
  for i = 0 to 9 do
    ignore (Wal.append w ~order:i (Wal.Rol_insert { sub = i }))
  done;
  check "pruned" 5 (Wal.prune_below w ~order:5);
  check "live" 5 (Wal.size w);
  check "high water unchanged" 10 (Wal.high_water w)

let test_all_oldest_first () =
  let w = Wal.create () in
  ignore (Wal.append w ~order:0 (Wal.Io_op { file = 0; words = 1 }));
  ignore (Wal.append w ~order:1 (Wal.Io_op { file = 0; words = 2 }));
  match Wal.all w with
  | [ a; b ] -> checkb "oldest first" true (a.Wal.lsn < b.Wal.lsn)
  | _ -> Alcotest.fail "expected two"

(* Arming the stable image changes no volatile state: one append/prune/
   drop sequence leaves the same entries, size and high water armed or
   not, and the armed image parses back to exactly the ops appended. *)
let test_armed_matches_unarmed () =
  let op i =
    match i mod 6 with
    | 0 -> Wal.Alloc { addr = 100 + i; size = i + 1 }
    | 1 -> Wal.Free { addr = 100 + i; size = 2 }
    | 2 -> Wal.Thread_create { tid = i }
    | 3 -> Wal.Rol_insert { sub = i }
    | 4 -> Wal.Sched_enqueue { sub = i }
    | _ -> Wal.Io_op { file = 1; words = i }
  in
  let order i = if i < 12 then i mod 4 else 4 + (i mod 2) in
  let drive w =
    for i = 0 to 11 do
      ignore (Wal.append w ~at:(10 * i) ~order:(order i) (op i))
    done;
    ignore (Wal.prune_below w ~order:1);
    ignore (Wal.drop_for w ~orders:(fun o -> o = 3));
    for i = 12 to 15 do
      ignore (Wal.append w ~at:(10 * i) ~order:(order i) (op i))
    done;
    ignore (Wal.prune_below w ~order:5)
  in
  let plain = Wal.create () and armed = Wal.create ~stable:true () in
  drive plain;
  drive armed;
  checkb "unarmed keeps no image" true (Wal.stable_image plain = None);
  checkb "same entries" true (Wal.all plain = Wal.all armed);
  check "same size" (Wal.size plain) (Wal.size armed);
  check "same high water" (Wal.high_water plain) (Wal.high_water armed);
  let recs = Wal.parse_image (Option.get (Wal.stable_image armed)) in
  let ops =
    List.filter_map (function Wal.S_op { at; e } -> Some (at, e) | _ -> None) recs
  in
  checkb "every append round-trips" true
    (ops
    = List.init 16 (fun i -> (10 * i, { Wal.lsn = i; order = order i; op = op i })));
  let count p = List.length (List.filter p recs) in
  check "prune markers" 2 (count (function Wal.S_prune _ -> true | _ -> false));
  check "drop markers" 1 (count (function Wal.S_drop _ -> true | _ -> false))

(* Undo log *)

let mk_state () =
  let mem = Vm.Mem.create ~words:64 in
  let atomics = Array.make 4 0 in
  let io = Vm.Io.create () in
  let f = Vm.Io.add_file io ~name:"f" [| 7; 8 |] in
  (mem, atomics, io, f)

let test_undo_first_write_only () =
  let log = Exec.Undo_log.create () in
  checkb "first" true (Exec.Undo_log.note log (Exec.Undo_log.K_mem 3) ~old:10);
  checkb "second ignored" false (Exec.Undo_log.note log (Exec.Undo_log.K_mem 3) ~old:99);
  check "size" 1 (Exec.Undo_log.size log)

let test_undo_replay_restores () =
  let mem, atomics, io, f = mk_state () in
  let log = Exec.Undo_log.create () in
  (* mutate with pre-image capture *)
  ignore (Exec.Undo_log.note log (Exec.Undo_log.K_mem 3) ~old:(Vm.Mem.read mem 3));
  Vm.Mem.write mem 3 42;
  ignore (Exec.Undo_log.note log (Exec.Undo_log.K_atomic 1) ~old:atomics.(1));
  atomics.(1) <- 5;
  ignore (Exec.Undo_log.note log (Exec.Undo_log.K_file_len f) ~old:(Vm.Io.size io f));
  ignore
    (Exec.Undo_log.note log (Exec.Undo_log.K_file (f, 5)) ~old:(Vm.Io.read io f ~off:5));
  Vm.Io.write io f ~off:5 77;
  let restored = Exec.Undo_log.replay ~mem ~atomics ~io log in
  check "restored words" 4 restored;
  check "mem back" 0 (Vm.Mem.read mem 3);
  check "atomic back" 0 atomics.(1);
  check "file len back" 2 (Vm.Io.size io f);
  checkb "log reusable" true (Exec.Undo_log.is_empty log)

let test_undo_reverse_order () =
  (* Two writes to the same location across two logs: merging keeps the
     older pre-image. *)
  let mem, atomics, io, _ = mk_state () in
  Vm.Mem.write mem 0 1;
  let older = Exec.Undo_log.create () in
  ignore (Exec.Undo_log.note older (Exec.Undo_log.K_mem 0) ~old:1);
  Vm.Mem.write mem 0 2;
  let newer = Exec.Undo_log.create () in
  ignore (Exec.Undo_log.note newer (Exec.Undo_log.K_mem 0) ~old:2);
  Vm.Mem.write mem 0 3;
  Exec.Undo_log.merge_newer ~older newer;
  ignore (Exec.Undo_log.replay ~mem ~atomics ~io older);
  check "older pre-image wins" 1 (Vm.Mem.read mem 0)

let test_undo_keys () =
  let log = Exec.Undo_log.create () in
  ignore (Exec.Undo_log.note log (Exec.Undo_log.K_mem 1) ~old:0);
  ignore (Exec.Undo_log.note log (Exec.Undo_log.K_mem 2) ~old:0);
  check "two keys" 2 (List.length (Exec.Undo_log.keys log))

let suite =
  [
    Alcotest.test_case "lsn monotonic" `Quick test_lsn_monotonic;
    Alcotest.test_case "entries_for newest first" `Quick test_entries_for_newest_first;
    Alcotest.test_case "drop_for" `Quick test_drop_for;
    Alcotest.test_case "prune_below" `Quick test_prune_below;
    Alcotest.test_case "all oldest first" `Quick test_all_oldest_first;
    Alcotest.test_case "armed image matches unarmed" `Quick test_armed_matches_unarmed;
    Alcotest.test_case "undo: first write only" `Quick test_undo_first_write_only;
    Alcotest.test_case "undo: replay restores" `Quick test_undo_replay_restores;
    Alcotest.test_case "undo: merge keeps older" `Quick test_undo_reverse_order;
    Alcotest.test_case "undo: keys" `Quick test_undo_keys;
  ]
