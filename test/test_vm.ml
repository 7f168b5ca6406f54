(* Unit tests for the machine substrate: memory/allocator, files, TCBs,
   the builder eDSL. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_mem_rw () =
  let m = Vm.Mem.create ~words:128 in
  Vm.Mem.write m 5 42;
  check "read back" 42 (Vm.Mem.read m 5);
  check "zero init" 0 (Vm.Mem.read m 6)

let test_mem_reserve_sequential () =
  let m = Vm.Mem.create ~words:128 in
  let a = Vm.Mem.reserve m 10 in
  let b = Vm.Mem.reserve m 10 in
  check "first at 0" 0 a;
  check "second follows" 10 b

let test_mem_alloc_free_reuse () =
  let m = Vm.Mem.create ~words:128 in
  let a = Vm.Mem.alloc m 16 in
  Alcotest.(check (option int)) "size" (Some 16) (Vm.Mem.block_size m a);
  Vm.Mem.free m a;
  Alcotest.(check (option int)) "gone" None (Vm.Mem.block_size m a);
  let b = Vm.Mem.alloc m 16 in
  check "first fit reuses" a b

let test_mem_alloc_distinct () =
  let m = Vm.Mem.create ~words:1024 in
  let blocks = List.init 10 (fun _ -> Vm.Mem.alloc m 32) in
  let sorted = List.sort_uniq compare blocks in
  check "all distinct" 10 (List.length sorted)

let test_mem_oom () =
  let m = Vm.Mem.create ~words:64 in
  ignore (Vm.Mem.alloc m 60);
  Alcotest.check_raises "oom" (Failure "Mem.alloc: out of simulated memory")
    (fun () -> ignore (Vm.Mem.alloc m 60))

let test_mem_undo_alloc_free () =
  let m = Vm.Mem.create ~words:128 in
  let a = Vm.Mem.alloc m 8 in
  Vm.Mem.undo_alloc m a;
  Alcotest.(check (option int)) "undone" None (Vm.Mem.block_size m a);
  let b = Vm.Mem.alloc m 8 in
  check "block back on free list" a b;
  Vm.Mem.free m b;
  Vm.Mem.undo_free m b ~size:8;
  Alcotest.(check (option int)) "re-registered" (Some 8) (Vm.Mem.block_size m b)

let test_mem_snapshot_restore () =
  (* The checkpoint CPR takes: a data image plus the allocator parts. *)
  let m = Vm.Mem.create ~words:64 in
  let a = Vm.Mem.alloc m 4 in
  Vm.Mem.write m a 7;
  let img = Vm.Mem.alloc_image m in
  ignore (Vm.Mem.capture m img);
  let brk, free, used = Vm.Mem.alloc_parts m in
  Vm.Mem.write m a 9;
  let b = Vm.Mem.alloc m 8 in
  Vm.Mem.free m a;
  ignore (Vm.Mem.restore_image m img);
  Vm.Mem.restore_alloc_parts m ~brk ~free ~used;
  check "word restored" 7 (Vm.Mem.read m a);
  Alcotest.(check (option int)) "alloc state restored" (Some 4)
    (Vm.Mem.block_size m a);
  Alcotest.(check (option int)) "later block gone" None (Vm.Mem.block_size m b);
  checkb "allocator parts round-trip" true
    (Vm.Mem.alloc_parts m = (brk, free, used))

let test_mem_free_coalesces () =
  let m = Vm.Mem.create ~words:128 in
  let blocks = List.init 16 (fun _ -> Vm.Mem.alloc m 8) in
  List.iter (Vm.Mem.free m) blocks;
  (* Adjacent frees merge back into one block covering the arena. *)
  check "whole arena allocatable again" 0 (Vm.Mem.alloc m 128)

let test_mem_coalesced_reuse () =
  let m = Vm.Mem.create ~words:128 in
  let a = Vm.Mem.alloc m 16 in
  let b = Vm.Mem.alloc m 16 in
  let c = Vm.Mem.alloc m 16 in
  Vm.Mem.free m a;
  Vm.Mem.free m b;
  check "merged block serves a larger alloc" a (Vm.Mem.alloc m 32);
  Vm.Mem.free m c

let test_mem_undo_free_coalesced () =
  let m = Vm.Mem.create ~words:128 in
  let a = Vm.Mem.alloc m 8 in
  let b = Vm.Mem.alloc m 8 in
  Vm.Mem.free m a;
  Vm.Mem.free m b;
  (* b's words are now inside a coalesced free block; undo_free must
     carve exactly b back out of it. *)
  Vm.Mem.undo_free m b ~size:8;
  Alcotest.(check (option int)) "b re-registered" (Some 8) (Vm.Mem.block_size m b);
  check "a still free" a (Vm.Mem.alloc m 8)

let test_mem_image_roundtrip () =
  let m = Vm.Mem.create ~words:256 in
  Vm.Mem.write m 5 1;
  Vm.Mem.write m 200 2;
  let img = Vm.Mem.alloc_image m in
  check "first capture copies every word" 256 (Vm.Mem.capture m img);
  Vm.Mem.write m 5 99;
  Vm.Mem.write m 64 7;
  let n = Vm.Mem.restore_image m img in
  checkb "restore copies only the dirty pages" true (n > 0 && n <= 128);
  check "overwritten word restored" 1 (Vm.Mem.read m 5);
  check "clean word intact" 2 (Vm.Mem.read m 200);
  check "dirty-page neighbor restored" 0 (Vm.Mem.read m 64);
  (* Re-capture after restore: only the re-stamped pages are copied. *)
  Vm.Mem.write m 0 3;
  check "incremental capture" 128 (Vm.Mem.capture m img)

let test_mem_touch_epochs () =
  let m = Vm.Mem.create ~words:64 in
  let img = Vm.Mem.alloc_image m in
  ignore (Vm.Mem.capture m img);
  checkb "first touch in epoch" true (Vm.Mem.touch m 3);
  checkb "second touch is absorbed" false (Vm.Mem.touch m 3);
  ignore (Vm.Mem.capture m img);
  checkb "capture opens a new epoch" true (Vm.Mem.touch m 3)

let test_mem_touch_untouched () =
  (* No capture, no earlier touch: the first touch of each word counts,
     the last word included. *)
  let m = Vm.Mem.create ~words:100 in
  Vm.Mem.write m 99 5;
  checkb "first touch" true (Vm.Mem.touch m 99);
  checkb "again" false (Vm.Mem.touch m 99);
  checkb "another word" true (Vm.Mem.touch m 0)

let test_io_basics () =
  let io = Vm.Io.create () in
  let f = Vm.Io.add_file io ~name:"in" [| 1; 2; 3 |] in
  check "size" 3 (Vm.Io.size io f);
  check "read" 2 (Vm.Io.read io f ~off:1);
  check "sparse read" 0 (Vm.Io.read io f ~off:99);
  Alcotest.(check (option int)) "lookup" (Some f) (Vm.Io.lookup io "in")

let test_io_write_grows () =
  let io = Vm.Io.create () in
  let f = Vm.Io.add_file io ~name:"out" [||] in
  Vm.Io.write io f ~off:10 99;
  check "grew" 11 (Vm.Io.size io f);
  check "written" 99 (Vm.Io.read io f ~off:10);
  check "hole is zero" 0 (Vm.Io.read io f ~off:5)

let test_io_truncate () =
  let io = Vm.Io.create () in
  let f = Vm.Io.add_file io ~name:"out" [| 5; 6; 7 |] in
  Vm.Io.truncate io f 1;
  check "shorter" 1 (Vm.Io.size io f);
  Alcotest.(check (array int)) "contents" [| 5 |] (Vm.Io.contents io f)

let test_io_initial_array_shared () =
  let init = [| 1; 2; 3 |] in
  let io = Vm.Io.create () in
  let f = Vm.Io.add_file io ~name:"in" init in
  let g = Vm.Io.add_file io ~name:"in2" init in
  Vm.Io.write io f ~off:0 9;
  Vm.Io.truncate io g 1;
  Vm.Io.truncate io g 3;
  Alcotest.(check (array int)) "initial array intact" [| 1; 2; 3 |] init;
  Alcotest.(check (array int)) "written" [| 9; 2; 3 |] (Vm.Io.contents io f);
  Alcotest.(check (array int)) "truncated and regrown" [| 1; 0; 0 |]
    (Vm.Io.contents io g)

let test_tcb_save_restore () =
  let proc = { Vm.Isa.pname = "p"; code = [| Vm.Isa.Exit |] } in
  let t = Vm.Tcb.create ~tid:3 ~group:1 ~proc ~args:[| 10; 20 |] in
  check "args loaded" 10 t.Vm.Tcb.regs.(0);
  check "args loaded" 20 t.Vm.Tcb.regs.(1);
  let last = Vm.Isa.n_registers - 1 in
  t.Vm.Tcb.regs.(last) <- 7;
  t.Vm.Tcb.in_cpr_region <- true;
  let saved = Vm.Tcb.copy_state t in
  t.Vm.Tcb.pc <- 5;
  t.Vm.Tcb.regs.(0) <- 999;
  t.Vm.Tcb.regs.(last) <- 998;
  t.Vm.Tcb.in_cpr_region <- false;
  Vm.Tcb.restore_state t saved;
  check "pc restored" 0 t.Vm.Tcb.pc;
  check "reg restored" 10 t.Vm.Tcb.regs.(0);
  check "last reg restored" 7 t.Vm.Tcb.regs.(last);
  checkb "region flag restored" true t.Vm.Tcb.in_cpr_region;
  (* A recycled snapshot is overwritten whole: pc, flag and every
     register, the last one included. *)
  t.Vm.Tcb.pc <- 2;
  t.Vm.Tcb.regs.(last) <- 6;
  t.Vm.Tcb.in_cpr_region <- false;
  Vm.Tcb.copy_state_into t saved;
  t.Vm.Tcb.pc <- 0;
  t.Vm.Tcb.regs.(last) <- 0;
  t.Vm.Tcb.in_cpr_region <- true;
  Vm.Tcb.restore_state t saved;
  check "recycled pc" 2 t.Vm.Tcb.pc;
  checkb "recycled region flag" false t.Vm.Tcb.in_cpr_region;
  check "recycled last reg" 6 t.Vm.Tcb.regs.(last);
  check "recycled first reg" 10 t.Vm.Tcb.regs.(0)

let test_builder_labels () =
  let b = Vm.Builder.proc "loop" in
  (* r0 counts down from 3; r1 accumulates iterations. *)
  Vm.Builder.set_reg b 0 (fun _ -> 3);
  Vm.Builder.while_ b
    (fun regs -> regs.(0) > 0)
    (fun () ->
      Vm.Builder.set_reg b 1 (fun regs -> regs.(1) + 10);
      Vm.Builder.set_reg b 0 (fun regs -> regs.(0) - 1));
  Vm.Builder.exit_ b;
  let proc = Vm.Builder.finish b in
  checkb "has code" true (Array.length proc.Vm.Isa.code > 4)

let test_builder_unbound_label () =
  let b = Vm.Builder.proc "bad" in
  let l = Vm.Builder.fresh_label b in
  Vm.Builder.goto b l;
  Alcotest.check_raises "unbound"
    (Invalid_argument "Builder.finish(bad): unbound label") (fun () ->
      ignore (Vm.Builder.finish b))

let test_builder_program_validation () =
  let p = Vm.Builder.proc "main" in
  Vm.Builder.exit_ p;
  let proc = Vm.Builder.finish p in
  Alcotest.check_raises "bad entry"
    (Invalid_argument "Builder.program: entry proc not among procs") (fun () ->
      ignore (Vm.Builder.program ~entry:"nope" [ proc ]))

let test_isa_sync_points () =
  checkb "lock is sync" true (Vm.Isa.is_sync_point (Vm.Isa.Lock { m = (fun _ -> 0) }));
  checkb "unlock is NOT sync (critical-section optimization)" false
    (Vm.Isa.is_sync_point (Vm.Isa.Unlock { m = (fun _ -> 0) }));
  checkb "nonstd atomic invisible" false
    (Vm.Isa.is_sync_point
       (Vm.Isa.Nonstd_atomic { var = (fun _ -> 0); rmw = (fun ~old _ -> old); dst = 0 }));
  checkb "exit is sync" true (Vm.Isa.is_sync_point Vm.Isa.Exit)

let suite =
  [
    Alcotest.test_case "mem read/write" `Quick test_mem_rw;
    Alcotest.test_case "mem reserve" `Quick test_mem_reserve_sequential;
    Alcotest.test_case "mem alloc/free/reuse" `Quick test_mem_alloc_free_reuse;
    Alcotest.test_case "mem alloc distinct" `Quick test_mem_alloc_distinct;
    Alcotest.test_case "mem oom" `Quick test_mem_oom;
    Alcotest.test_case "mem undo alloc/free" `Quick test_mem_undo_alloc_free;
    Alcotest.test_case "mem snapshot/restore" `Quick test_mem_snapshot_restore;
    Alcotest.test_case "mem free coalesces" `Quick test_mem_free_coalesces;
    Alcotest.test_case "mem coalesced reuse" `Quick test_mem_coalesced_reuse;
    Alcotest.test_case "mem undo_free from coalesced block" `Quick test_mem_undo_free_coalesced;
    Alcotest.test_case "mem image roundtrip" `Quick test_mem_image_roundtrip;
    Alcotest.test_case "mem touch epochs" `Quick test_mem_touch_epochs;
    Alcotest.test_case "mem touch on a never-touched memory" `Quick
      test_mem_touch_untouched;
    Alcotest.test_case "io basics" `Quick test_io_basics;
    Alcotest.test_case "io write grows" `Quick test_io_write_grows;
    Alcotest.test_case "io truncate" `Quick test_io_truncate;
    Alcotest.test_case "io copies the initial array on first write" `Quick
      test_io_initial_array_shared;
    Alcotest.test_case "tcb save/restore" `Quick test_tcb_save_restore;
    Alcotest.test_case "builder labels" `Quick test_builder_labels;
    Alcotest.test_case "builder unbound label" `Quick test_builder_unbound_label;
    Alcotest.test_case "builder program validation" `Quick test_builder_program_validation;
    Alcotest.test_case "isa sync points" `Quick test_isa_sync_points;
  ]
