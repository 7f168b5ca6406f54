type t = {
  n : int;
  local : int Deque.t array;  (* per-context deques *)
  mutable count : int;
}

let create ~n_contexts =
  { n = n_contexts; local = Array.init n_contexts (fun _ -> Deque.create ()); count = 0 }

let enqueue t ~ctx_hint x =
  t.count <- t.count + 1;
  Deque.push_bottom t.local.(ctx_hint mod t.n) x

let take t ~ctx =
  if t.count = 0 then None
  else
    match Deque.pop_bottom t.local.(ctx) with
    | Some x ->
      t.count <- t.count - 1;
      Some (x, false)
    | None ->
      (* Probe victims in a fixed rotation starting after the thief. *)
      let rec probe i =
        if i >= t.n then None
        else
          let victim = (ctx + i) mod t.n in
          match Deque.steal_top t.local.(victim) with
          | Some x ->
            t.count <- t.count - 1;
            Some (x, true)
          | None -> probe (i + 1)
      in
      probe 1

let remove t x =
  let remove_from d =
    let items = Deque.to_list d in
    if List.mem x items then begin
      (* Rebuild without the first occurrence. *)
      let rec drain () =
        match Deque.steal_top d with Some _ -> drain () | None -> ()
      in
      drain ();
      let removed = ref false in
      List.iter
        (fun y ->
          if (not !removed) && y = x then removed := true
          else Deque.push_bottom d y)
        items;
      !removed
    end
    else false
  in
  let rec go i = i < t.n && (remove_from t.local.(i) || go (i + 1)) in
  let found = go 0 in
  if found then t.count <- t.count - 1;
  found

let length t = t.count

let is_empty t = t.count = 0
