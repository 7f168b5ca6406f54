type scheme = Round_robin | Balance_aware | Weighted | Recorded

(* [slot] is the member's index in its group's [members] array, [gi] the
   group's index. *)
type member = {
  tid : int;
  gi : int;
  slot : int;
  mutable dead : bool;
  mutable eligible : bool;
}

type group = {
  weight : int;
  mutable members : member array;
  mutable count : int;
  mutable cursor : int;  (* index of the next member to consider *)
}

(* [holder] is memoized: [memo_ok] is cleared by every mutation that can
   change the answer (membership, eligibility flips, cursor moves). *)
type t = {
  sch : scheme;
  groups : group array;
  mutable gcursor : int;
  mutable budget : int;  (* remaining turns for the cursor group *)
  mutable index : member option array;  (* tid -> member, if in the table *)
  mutable live : int;
  mutable memo : int option;
  mutable memo_ok : bool;
}

let mk_group weight = { weight; members = [||]; count = 0; cursor = 0 }

let create sch ~group_weights =
  let groups =
    match sch with
    | Round_robin | Recorded -> [| mk_group 1 |]
    | Balance_aware -> Array.map (fun _ -> mk_group 1) group_weights
    | Weighted -> Array.map (fun w -> mk_group (Stdlib.max 1 w)) group_weights
  in
  let budget = if Array.length groups = 0 then 1 else groups.(0).weight in
  {
    sch;
    groups;
    gcursor = 0;
    budget;
    index = Array.make 64 None;
    live = 0;
    memo = None;
    memo_ok = false;
  }

let scheme t = t.sch

let find t tid =
  if tid >= 0 && tid < Array.length t.index then t.index.(tid) else None

let group_idx t group =
  match t.sch with
  | Round_robin | Recorded -> 0
  | Balance_aware | Weighted ->
    if group < 0 || group >= Array.length t.groups then
      invalid_arg "Order.add_thread: group out of range"
    else group

let add_thread t ~tid ~group =
  if tid < 0 then invalid_arg "Order.add_thread: negative tid";
  if find t tid <> None then invalid_arg "Order.add_thread: duplicate tid";
  let gi = group_idx t group in
  let g = t.groups.(gi) in
  let m = { tid; gi; slot = g.count; dead = false; eligible = true } in
  if g.count = Array.length g.members then begin
    let members' = Array.make (Stdlib.max 8 (2 * g.count)) m in
    Array.blit g.members 0 members' 0 g.count;
    g.members <- members'
  end;
  g.members.(g.count) <- m;
  g.count <- g.count + 1;
  if tid >= Array.length t.index then begin
    let index = Array.make (Stdlib.max (tid + 1) (2 * Array.length t.index)) None in
    Array.blit t.index 0 index 0 (Array.length t.index);
    t.index <- index
  end;
  t.index.(tid) <- Some m;
  t.live <- t.live + 1;
  t.memo_ok <- false

let remove_thread t tid =
  match find t tid with
  | None -> ()
  | Some m ->
    if not m.dead then begin
      m.dead <- true;
      t.live <- t.live - 1
    end;
    t.index.(tid) <- None;
    t.memo_ok <- false

let set_eligible t tid e =
  match find t tid with
  | None -> ()
  | Some m ->
    if m.eligible <> e then begin
      m.eligible <- e;
      t.memo_ok <- false
    end

let is_eligible t tid =
  match find t tid with
  | None -> false
  | Some m -> (not m.dead) && m.eligible

let mem t tid = find t tid <> None

let live_count t = t.live

(* First live eligible member of [g] scanning from its cursor, wrapping. *)
let scan_group g =
  let rec go i =
    if i >= g.count then None
    else
      let m = g.members.((g.cursor + i) mod g.count) in
      if (not m.dead) && m.eligible then Some m.tid else go (i + 1)
  in
  if g.count = 0 then None else go 0

let scan t =
  if t.sch = Recorded then None
  else
  let n = Array.length t.groups in
  let rec go i =
    if i >= n then None
    else
      match scan_group t.groups.((t.gcursor + i) mod n) with
      | Some tid -> Some tid
      | None -> go (i + 1)
  in
  if n = 0 then None else go 0

let holder t =
  if not t.memo_ok then begin
    t.memo <- scan t;
    t.memo_ok <- true
  end;
  t.memo

let advance t ~granted =
  match find t granted with
  | None -> ()
  | Some m ->
    let gi = m.gi in
    let g = t.groups.(gi) in
    t.memo_ok <- false;
    (* Move the group's cursor just past the granted member. Stored
       un-reduced; [scan_group] reduces modulo the current member count,
       so threads appended later slot into the rotation correctly. *)
    g.cursor <- m.slot + 1;
    (* Group rotation: if the grant came from a group ahead of the cursor
       (the cursor group had no eligible member), adopt it first. *)
    if gi <> t.gcursor then begin
      t.gcursor <- gi;
      t.budget <- g.weight
    end;
    t.budget <- t.budget - 1;
    if t.budget <= 0 then begin
      let n = Array.length t.groups in
      t.gcursor <- (t.gcursor + 1) mod Stdlib.max 1 n;
      t.budget <- t.groups.(t.gcursor).weight
    end
