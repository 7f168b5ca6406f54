(* Reference models for the differential properties in [props.ml]: the
   list-and-Hashtbl implementations of the undo log, the live WAL and
   the token order that the flat, order-indexed and memoized versions in
   the library replaced, the WAL image reader that the in-place scanner
   replaced, and the flat-copy memory images that per-page images
   replaced. They define the required behaviour; they are not tuned. *)

module Undo_log = struct
  type key = Exec.Undo_log.key =
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
end

(* Memory with dirty-tracked flat-copy images: every image is a full
   copy of the words, and capture/restore copy the pages (64 words, as
   in [Vm.Mem]) stamped since the image was synced. The returned counts
   are the words of those pages. *)
module Mem_image = struct
  let page_words = 64

  type t = { data : int array; page_epoch : int array; mutable epoch : int }
  type image = { img : int array; mutable synced_at : int }

  let create ~words =
    {
      data = Array.make words 0;
      page_epoch = Array.make ((words + page_words - 1) / page_words) 0;
      epoch = 1;
    }

  let read t a = t.data.(a)

  let write t a v =
    t.data.(a) <- v;
    t.page_epoch.(a / page_words) <- t.epoch

  let alloc_image t = { img = Array.make (Array.length t.data) 0; synced_at = -1 }

  let sync_pages t img ~src ~dst ~restamp =
    let copied = ref 0 in
    Array.iteri
      (fun p e ->
        if e > img.synced_at then begin
          let off = p * page_words in
          let len = min page_words (Array.length t.data - off) in
          Array.blit src off dst off len;
          if restamp then t.page_epoch.(p) <- t.epoch;
          copied := !copied + len
        end)
      t.page_epoch;
    !copied

  let capture t img =
    let n = sync_pages t img ~src:t.data ~dst:img.img ~restamp:false in
    img.synced_at <- t.epoch;
    t.epoch <- t.epoch + 1;
    n

  let restore_image t img =
    let n = sync_pages t img ~src:img.img ~dst:t.data ~restamp:true in
    t.epoch <- t.epoch + 1;
    n
end

module Wal = struct
  type op = Wal.op =
    | Alloc of { addr : int; size : int }
    | Free of { addr : int; size : int }
    | Thread_create of { tid : int }
    | Rol_insert of { sub : int }
    | Sched_enqueue of { sub : int }
    | Io_op of { file : int; words : int }

  type entry = Wal.entry = { lsn : int; order : int; op : op }

  type t = {
    mutable entries : entry list;  (* newest first *)
    mutable next_lsn : int;
    mutable live : int;
    mutable hw : int;
    stable : Buffer.t option;  (* serialized "stable storage" image, or None *)
  }

  let create ?(stable = false) () =
    {
      entries = [];
      next_lsn = 0;
      live = 0;
      hw = 0;
      stable = (if stable then Some (Buffer.create 4096) else None);
    }

  let stable_armed t = Option.is_some t.stable

  let fnv1a s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001b3L)
      s;
    !h

  let emit t line =
    match t.stable with
    | None -> ()
    | Some buf ->
      Buffer.add_string buf line;
      Buffer.add_string buf (Printf.sprintf " %Lx\n" (fnv1a line))

  let kind_char = function
    | Alloc _ -> 'A'
    | Free _ -> 'F'
    | Thread_create _ -> 'T'
    | Rol_insert _ -> 'R'
    | Sched_enqueue _ -> 'S'
    | Io_op _ -> 'I'

  let op_fields = function
    | Alloc { addr; size } | Free { addr; size } -> (addr, size)
    | Thread_create { tid } -> (tid, 0)
    | Rol_insert { sub } | Sched_enqueue { sub } -> (sub, 0)
    | Io_op { file; words } -> (file, words)

  let append t ?(at = 0) ~order op =
    let lsn = t.next_lsn in
    t.next_lsn <- lsn + 1;
    t.entries <- { lsn; order; op } :: t.entries;
    t.live <- t.live + 1;
    if t.live > t.hw then t.hw <- t.live;
    if stable_armed t then begin
      let a, b = op_fields op in
      emit t (Printf.sprintf "O %d %d %d %c %d %d" lsn at order (kind_char op) a b)
    end;
    lsn

  let size t = t.live
  let high_water t = t.hw

  let all t = List.rev t.entries

  let squash t ids =
    let dropped, kept = List.partition (fun e -> List.mem e.order ids) t.entries in
    t.entries <- kept;
    t.live <- t.live - List.length dropped;
    (* Squash-undo is a durable decision: without a drop marker, cold
       recovery would count the squashed sub-threads' operations a second
       time (their undo already ran in the live engine). *)
    if dropped <> [] && t.stable <> None then begin
      let os =
        List.sort_uniq compare (List.map (fun e -> e.order) dropped)
      in
      emit t
        (Printf.sprintf "D %d %s" t.next_lsn
           (String.concat "," (List.map string_of_int os)))
    end;
    dropped

  let prune_below t ~order =
    let kept, dropped = List.partition (fun e -> e.order >= order) t.entries in
    t.entries <- kept;
    let n = List.length dropped in
    t.live <- t.live - n;
    if n > 0 && stable_armed t then
      emit t (Printf.sprintf "P %d %d" t.next_lsn order);
    n

  (* Redo scan start for the next recovery: the oldest LSN still protected
     by a live (volatile) entry. With no live entries nothing older than
     next_lsn can belong to an unretired sub-thread. *)
  let redo_start t =
    List.fold_left (fun acc e -> min acc e.lsn) t.next_lsn t.entries

  let log_checkpoint t ~min_retired ~active ~brk ~free ~used =
    if t.stable <> None then begin
      emit t (Printf.sprintf "B %d" t.next_lsn);
      let lsn = t.next_lsn in
      let ints l = if l = [] then "-" else String.concat "," (List.map string_of_int l) in
      let blocks l =
        if l = [] then "-"
        else String.concat "," (List.map (fun (a, s) -> Printf.sprintf "%d:%d" a s) l)
      in
      emit t
        (Printf.sprintf "E %d %d %d %s %d %s %s" lsn min_retired (redo_start t)
           (ints active) brk (blocks free) (blocks used))
    end

  let stable_image t = Option.map Buffer.contents t.stable

  (* The split-and-substring reader the in-place scanner replaced: each
     line cut out, its crc compared as a %Lx string, its fields split on
     spaces and commas and read by [int_of_string_opt]. *)
  let parse_image image =
    let bad fmt = Printf.ksprintf (fun m -> raise (Wal.Corrupt m)) fmt in
    let int s = match int_of_string_opt s with Some v -> v | None -> bad "bad int %S" s in
    let ints = function
      | "-" -> []
      | s -> List.map int (String.split_on_char ',' s)
    in
    let blocks = function
      | "-" -> []
      | s ->
        List.map
          (fun tok ->
            match String.split_on_char ':' tok with
            | [ a; sz ] -> (int a, int sz)
            | _ -> bad "bad block %S" tok)
          (String.split_on_char ',' s)
    in
    let parse_line ln line : Wal.srec =
      match String.rindex_opt line ' ' with
      | None -> bad "line %d: no checksum" ln
      | Some i ->
        let body = String.sub line 0 i in
        let crc = String.sub line (i + 1) (String.length line - i - 1) in
        let want = Printf.sprintf "%Lx" (fnv1a body) in
        if not (String.equal crc want) then
          bad "line %d: checksum mismatch (got %s, want %s)" ln crc want;
        (match String.split_on_char ' ' body with
        | [ "O"; lsn; at; order; k; a; b ] ->
          let a = int a and b = int b in
          let op =
            match k with
            | "A" -> Alloc { addr = a; size = b }
            | "F" -> Free { addr = a; size = b }
            | "T" -> Thread_create { tid = a }
            | "R" -> Rol_insert { sub = a }
            | "S" -> Sched_enqueue { sub = a }
            | "I" -> Io_op { file = a; words = b }
            | _ -> bad "line %d: unknown op kind %S" ln k
          in
          S_op { at = int at; e = { lsn = int lsn; order = int order; op } }
        | [ "P"; lsn; upto ] -> S_prune { lsn = int lsn; upto = int upto }
        | [ "D"; lsn; os ] -> S_drop { lsn = int lsn; orders = ints os }
        | [ "B"; lsn ] -> S_ckpt_begin { lsn = int lsn }
        | [ "E"; lsn; min_retired; redo_start; active; brk; free; used ] ->
          S_ckpt_end
            {
              lsn = int lsn;
              min_retired = int min_retired;
              redo_start = int redo_start;
              active = ints active;
              brk = int brk;
              free = blocks free;
              used = blocks used;
            }
        | _ -> bad "line %d: unparseable record %S" ln body)
    in
    let recs = ref [] in
    let n = String.length image in
    let pos = ref 0 and ln = ref 1 in
    while !pos < n do
      let stop = match String.index_from_opt image !pos '\n' with Some j -> j | None -> n in
      let line = String.sub image !pos (stop - !pos) in
      if line <> "" then recs := parse_line !ln line :: !recs;
      incr ln;
      pos := stop + 1
    done;
    List.rev !recs
end

module Order = struct
  type scheme = Gprs.Order.scheme =
    | Round_robin
    | Balance_aware
    | Weighted
    | Recorded

  type member = { tid : int; mutable dead : bool; mutable eligible : bool }

  type group = {
    weight : int;
    mutable members : member array;
    mutable count : int;
    mutable cursor : int;  (* index of the next member to consider *)
  }

  type t = {
    sch : scheme;
    groups : group array;
    mutable gcursor : int;
    mutable budget : int;  (* remaining turns for the cursor group *)
    index : (int, member * int) Hashtbl.t;  (* tid -> (member, group idx) *)
    mutable live : int;
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
    { sch; groups; gcursor = 0; budget; index = Hashtbl.create 64; live = 0 }

  let scheme t = t.sch

  let group_idx t group =
    match t.sch with
    | Round_robin | Recorded -> 0
    | Balance_aware | Weighted ->
      if group < 0 || group >= Array.length t.groups then
        invalid_arg "Order.add_thread: group out of range"
      else group

  let add_thread t ~tid ~group =
    if Hashtbl.mem t.index tid then invalid_arg "Order.add_thread: duplicate tid";
    let gi = group_idx t group in
    let g = t.groups.(gi) in
    let m = { tid; dead = false; eligible = true } in
    if g.count = Array.length g.members then begin
      let members' = Array.make (Stdlib.max 8 (2 * g.count)) m in
      Array.blit g.members 0 members' 0 g.count;
      g.members <- members'
    end;
    g.members.(g.count) <- m;
    g.count <- g.count + 1;
    Hashtbl.add t.index tid (m, gi);
    t.live <- t.live + 1

  let remove_thread t tid =
    match Hashtbl.find_opt t.index tid with
    | None -> ()
    | Some (m, _) ->
      if not m.dead then begin
        m.dead <- true;
        t.live <- t.live - 1
      end;
      Hashtbl.remove t.index tid

  let set_eligible t tid e =
    match Hashtbl.find_opt t.index tid with
    | None -> ()
    | Some (m, _) -> m.eligible <- e

  let is_eligible t tid =
    match Hashtbl.find_opt t.index tid with
    | None -> false
    | Some (m, _) -> (not m.dead) && m.eligible

  let mem t tid = Hashtbl.mem t.index tid

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

  let holder t =
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

  let advance t ~granted =
    match Hashtbl.find_opt t.index granted with
    | None -> ()
    | Some (m, gi) ->
      let g = t.groups.(gi) in
      (* Move the group's cursor just past the granted member. *)
      let pos = ref (-1) in
      for i = 0 to g.count - 1 do
        if g.members.(i) == m then pos := i
      done;
      (* Stored un-reduced; [scan_group] reduces modulo the current member
         count, so threads appended later slot into the rotation correctly. *)
      if !pos >= 0 then g.cursor <- !pos + 1;
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
end

(* The lint probe sandbox and race probe on per-probe [Hashtbl]s, as
   they were before the flat scratch tables: a fresh written-memory
   table, per-fd file tables and four access sets for every probe, and
   the linear [List.exists] membership in the classification. *)
module Lint_probe = struct
  open Lint

  module Itbl = Hashtbl.Make (Int)

  let sandbox_env ~on_read ~on_write ~salt regs =
    let written : int Itbl.t = Itbl.create 16 in
    let files : int Itbl.t Itbl.t = Itbl.create 4 in
    let h x = ((x * 0x9E3779B9) + salt) land 0x3FFF_FFFF in
    let fuel = ref Absval.probe_fuel in
    let burn () =
      decr fuel;
      if !fuel < 0 then raise Absval.Out_of_fuel
    in
    {
      Vm.Env.tid = salt land 0xFFF;
      regs;
      read =
        (fun a ->
          burn ();
          on_read a;
          match Itbl.find_opt written a with Some v -> v | None -> h (a + 1));
      write =
        (fun a v ->
          burn ();
          on_write a;
          Itbl.replace written a v);
      file_size =
        (fun fd ->
          burn ();
          h (fd + 0x1001) land 0xFFF);
      file_read =
        (fun fd ~off ->
          burn ();
          match
            Option.bind (Itbl.find_opt files fd) (fun f -> Itbl.find_opt f off)
          with
          | Some v -> v
          | None -> h ((fd * 65599) + off));
      file_write =
        (fun fd ~off v ->
          burn ();
          let f =
            match Itbl.find_opt files fd with
            | Some f -> f
            | None ->
              let f = Itbl.create 16 in
              Itbl.replace files fd f;
              f
          in
          Itbl.replace f off v);
    }

  let sorted_of_tbl tbl =
    Itbl.fold (fun a () acc -> a :: acc) tbl [] |> List.sort_uniq Int.compare

  let mem_sorted x l = List.exists (fun y -> y = x) l

  let classify ~mem_words sa sb =
    let page_bits = Races.page_bits in
    let words =
      Races.inter sa sb |> List.filter (fun a -> a >= 0 && a < mem_words)
    in
    let leftover s = List.filter (fun a -> not (mem_sorted a words)) s in
    let la = leftover sa and lb = leftover sb in
    let max_page = (mem_words + (1 lsl page_bits) - 1) lsr page_bits in
    let pages l =
      List.map (fun a -> a lsr page_bits) l
      |> List.sort_uniq Int.compare
      |> List.filter (fun p -> p >= 0 && p < max_page)
    in
    let shared_pages = Races.inter (pages la) (pages lb) in
    let unknown =
      List.length
        (List.filter
           (fun a -> not (mem_sorted (a lsr page_bits) shared_pages))
           la)
    in
    (words, shared_pages, unknown)

  (* The probe and the sorted (reads, writes) of probes A and B. *)
  let probe_work ~record ~mem_words regs run =
    let ra = Absval.concretize regs Absval.filler_a
    and rb = Absval.concretize regs Absval.filler_b in
    let reads_a = Itbl.create 16
    and writes_a = Itbl.create 16
    and reads_b = Itbl.create 16
    and writes_b = Itbl.create 16 in
    let note tbl = if record then fun a -> Itbl.replace tbl a () else fun _ -> () in
    let fuel = ref false in
    let go salt cregs ~reads ~writes =
      match
        run
          (sandbox_env ~on_read:(note reads) ~on_write:(note writes) ~salt
             cregs)
      with
      | () -> true
      | exception Absval.Out_of_fuel ->
        fuel := true;
        false
      | exception _ -> false
    in
    let ok_a = go 0x5eed0 ra ~reads:reads_a ~writes:writes_a in
    let ok_b = ok_a && go 0x7a110 rb ~reads:reads_b ~writes:writes_b in
    let regs' =
      if ok_a && ok_b then
        Array.init (Array.length regs) (fun i ->
            if ra.(i) = rb.(i) then Absval.Known ra.(i) else Absval.Top)
      else Absval.top_regs (Array.length regs)
    in
    let summary =
      if not record then Races.empty_summary
      else if ok_a && ok_b then begin
        let w_words, w_pages, unknown_writes =
          classify ~mem_words (sorted_of_tbl writes_a) (sorted_of_tbl writes_b)
        in
        let r_words, r_pages, unknown_reads =
          classify ~mem_words (sorted_of_tbl reads_a) (sorted_of_tbl reads_b)
        in
        { Races.w_words; r_words; w_pages; r_pages; unknown_writes;
          unknown_reads; incomplete = false }
      end
      else
        {
          Races.empty_summary with
          unknown_writes = Itbl.length writes_a;
          unknown_reads = Itbl.length reads_a;
          incomplete = true;
        }
    in
    ( { Races.regs = regs'; summary; fuel_exhausted = !fuel },
      ( (sorted_of_tbl reads_a, sorted_of_tbl writes_a),
        (sorted_of_tbl reads_b, sorted_of_tbl writes_b) ) )
end
