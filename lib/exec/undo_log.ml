type key =
  | K_mem of int
  | K_atomic of int
  | K_file of int * int
  | K_file_len of int

type t = {
  mutable entries : (key * int) list;  (* newest first *)
  seen : (key, unit) Hashtbl.t;
  (* When [paged] is set, memory keys are not materialized as entries:
     first-writes are detected through the memory's per-word dirty epoch
     and only counted, with the data itself restored page-wise by the
     owner through [Vm.Mem.restore_image]. Non-memory keys always take
     the entry path. *)
  paged : Vm.Mem.t option;
  mutable mem_touches : int;
}

let create ?paged () =
  { entries = []; seen = Hashtbl.create 64; paged; mem_touches = 0 }

let note_entry t key ~old =
  if Hashtbl.mem t.seen key then false
  else begin
    Hashtbl.add t.seen key ();
    t.entries <- (key, old) :: t.entries;
    true
  end

let note t key ~old =
  match t.paged, key with
  | Some mem, K_mem a ->
    if Vm.Mem.touch mem a then begin
      t.mem_touches <- t.mem_touches + 1;
      true
    end
    else false
  | _ -> note_entry t key ~old

let reset t =
  t.entries <- [];
  (* [clear], not [reset]: keep the bucket array so a recycled log does
     not re-pay the growth allocations of its previous life. *)
  Hashtbl.clear t.seen;
  t.mem_touches <- 0

let size t = t.mem_touches + Hashtbl.length t.seen
let is_empty t = t.mem_touches = 0 && t.entries = []

let apply_one ~mem ~atomics ~io (key, old) =
  match key with
  | K_mem a -> Vm.Mem.write mem a old
  | K_atomic v -> atomics.(v) <- old
  | K_file (f, off) -> Vm.Io.write io f ~off old
  | K_file_len f -> Vm.Io.truncate io f old

let replay ~mem ~atomics ~io t =
  let n = size t in
  List.iter (apply_one ~mem ~atomics ~io) t.entries;
  t.entries <- [];
  Hashtbl.reset t.seen;
  t.mem_touches <- 0;
  n

let keys t = List.map fst t.entries

let merge_newer ~older t =
  if t.paged <> None || older.paged <> None then
    invalid_arg "Undo_log.merge_newer: paged logs cannot be merged";
  (* Entries are newest-first; fold the newer log's records under the
     older one's, keeping the older pre-image on conflicts. *)
  List.iter
    (fun (key, old) -> ignore (note_entry older key ~old))
    (List.rev t.entries);
  t.entries <- [];
  Hashtbl.reset t.seen
