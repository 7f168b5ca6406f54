(* Fused-chain execution shared by the three engines. See fuse.mli. *)

let commit (tcb : Vm.Tcb.t) (pr : Vm.Block.probe) =
  tcb.Vm.Tcb.pc <- pr.Vm.Block.p_pc;
  tcb.Vm.Tcb.in_cpr_region <- pr.Vm.Block.p_in_cpr

let fetch (tcb : Vm.Tcb.t) =
  let pr =
    Vm.Block.probe_ctrl tcb.Vm.Tcb.proc ~pc:tcb.Vm.Tcb.pc ~regs:tcb.Vm.Tcb.regs
      ~in_cpr:tcb.Vm.Tcb.in_cpr_region
  in
  commit tcb pr;
  pr

let run_chain (type ev) (st : ev State.t) (tcb : Vm.Tcb.t) ~instrs ~horizon
    ?on_commit ~vstart () =
  let proc = tcb.Vm.Tcb.proc in
  let stats = st.State.stats in
  let vnow = ref vstart in
  let fused = ref 0 in
  let stop = ref false in
  let info = Vm.Block.proc_info st.State.blocks proc in
  (* One interpreted probe/commit iteration: the guard-deopt fallback,
     and the step for a pc with no entry cell. *)
  let interpret_one () =
    let pr =
      Vm.Block.probe_ctrl proc ~pc:tcb.Vm.Tcb.pc ~regs:tcb.Vm.Tcb.regs
        ~in_cpr:tcb.Vm.Tcb.in_cpr_region
    in
    match pr.Vm.Block.p_instr with
    | (Vm.Isa.Work { cost; run } | Vm.Isa.Opaque { cost; run }) as i
      when !vnow < horizon ->
      (* Commit the probe: consume the control prefix and the landing
         instruction, exactly as a dispatch's {!fetch} would. *)
      commit tcb pr;
      tcb.Vm.Tcb.pc <- tcb.Vm.Tcb.pc + 1;
      incr instrs;
      Vm.Block.profile_ctrl stats pr.Vm.Block.p_ctrl;
      Vm.Block.profile_instr stats i;
      (match on_commit with
      | Some f ->
        f
          ~opaques:(match i with Vm.Isa.Opaque _ -> 1 | _ -> 0)
          ~last_opaque_in_cpr:pr.Vm.Block.p_in_cpr
      | None -> ());
      let d = Sem.exec_work st tcb ~cost ~run in
      vnow := !vnow + pr.Vm.Block.p_ctrl + d;
      incr fused
    | _ ->
      (* Abandon the probe untouched: the next real tick replays the
         control prefix through {!fetch}, so trailing control cycles stay
         charged to the stopping instruction's hop. *)
      stop := true
  in
  while not !stop do
    if tcb.Vm.Tcb.wait <> Vm.Tcb.Runnable then stop := true
    else begin
      match Vm.Block.trace_at info tcb.Vm.Tcb.pc with
      | None -> interpret_one ()
      | Some cell ->
        let cu = State.cursor st tcb in
        cu.Vm.Block.cu_vnow <- !vnow;
        cu.Vm.Block.cu_horizon <- horizon;
        cu.Vm.Block.cu_steps <- 0;
        cu.Vm.Block.cu_ctrl <- 0;
        cu.Vm.Block.cu_opaques <- 0;
        Vm.Block.enter cell cu;
        let steps = cu.Vm.Block.cu_steps in
        if steps > 0 then begin
          vnow := cu.Vm.Block.cu_vnow;
          fused := !fused + steps;
          instrs := !instrs + steps;
          (* Deferred engine bookkeeping, applied before any further
             interpreted instruction of the same chain so last-writer
             effects land in program order. *)
          (match on_commit with
          | Some f ->
            f ~opaques:cu.Vm.Block.cu_opaques
              ~last_opaque_in_cpr:cu.Vm.Block.cu_opaque_in_cpr
          | None -> ());
          if !Vm.Block.profiling then begin
            let opaques = cu.Vm.Block.cu_opaques in
            Sim.Stats.incr stats "compile.entries";
            Sim.Stats.add stats "compile.steps" steps;
            Sim.Stats.observe stats "compile.len" (float_of_int steps);
            if steps > opaques then
              Sim.Stats.add stats "dispatch.work" (steps - opaques);
            if opaques > 0 then Sim.Stats.add stats "dispatch.opaque" opaques;
            Vm.Block.profile_ctrl stats cu.Vm.Block.cu_ctrl
          end
        end;
        (match cu.Vm.Block.cu_deopt with
        | Vm.Block.Horizon ->
          if !Vm.Block.profiling then
            Sim.Stats.incr stats "compile.deopt.horizon";
          stop := true
        | Vm.Block.Guard_fail ->
          if !Vm.Block.profiling then
            Sim.Stats.incr stats "compile.deopt.guard";
          (* The branch went against its static prediction: interpret
             exactly one probe (which follows the real direction), then
             try to re-enter a trace at the new boundary. *)
          interpret_one ()
        | Vm.Block.Trace_end ->
          (* Next landing stops the block. [steps = 0] means the entry
             cell itself was terminal (cannot happen via [trace_at],
             defensively interpreted to guarantee progress). *)
          if steps = 0 then interpret_one ())
    end
  done;
  Vm.Block.profile_hop stats (1 + !fused);
  !vnow
