(* GC cost from OCaml's Runtime_events ring, the one source of every gc.*
   metric: the benchmark's own process, or a child started with
   OCAML_RUNTIME_EVENTS_START=1 and read by pid. A pause is an outermost
   runtime phase on one ring (one domain); nested phases are inside it.
   A domain waiting on a condition (an idle worker, a thread waiting for
   the runtime lock) is not a pause and is skipped. Only events read
   while counting is on are added up, and only that time is the window
   the pause share is taken of. Poll often enough that the ring does not
   wrap: lost events are counted, not guessed. *)

type stats = {
  mutable pause_s : float;  (* summed over domains *)
  mutable pause_max_s : float;
  mutable minor_bytes : float;
  mutable majors : int;
  mutable lost : int;
  mutable domains : int;  (* rings seen *)
  mutable window_s : float;  (* time counted so far *)
  mutable since : int64 option;  (* start of the open window *)
}

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  stats : stats;
}

let counting st = Option.is_some st.since

let create source =
  let st =
    {
      pause_s = 0.0;
      pause_max_s = 0.0;
      minor_bytes = 0.0;
      majors = 0;
      lost = 0;
      domains = 0;
      window_s = 0.0;
      since = None;
    }
  in
  let depth = Hashtbl.create 4 in
  (* ring -> (open phases, begin timestamp of the outermost) *)
  let ts x = Runtime_events.Timestamp.to_int64 x in
  let runtime_begin ring at phase =
    (* every domain records the end of a major cycle; count the main one *)
    if counting st && ring = 0 && phase = Runtime_events.EV_MAJOR_GC_CYCLE_DOMAINS then
      st.majors <- st.majors + 1;
    if phase <> Runtime_events.EV_DOMAIN_CONDITION_WAIT then
      match Hashtbl.find_opt depth ring with
      | Some (d, b) when d > 0 -> Hashtbl.replace depth ring (d + 1, b)
      | found ->
        if found = None then st.domains <- st.domains + 1;
        Hashtbl.replace depth ring (1, ts at)
  in
  let runtime_end ring at phase =
    if phase <> Runtime_events.EV_DOMAIN_CONDITION_WAIT then
      match Hashtbl.find_opt depth ring with
      | Some (1, b) ->
        Hashtbl.replace depth ring (0, 0L);
        let s = Int64.to_float (Int64.sub (ts at) b) *. 1e-9 in
        if counting st then begin
          st.pause_s <- st.pause_s +. s;
          if s > st.pause_max_s then st.pause_max_s <- s
        end
      | Some (d, b) when d > 1 -> Hashtbl.replace depth ring (d - 1, b)
      | _ -> () (* the ring was first read mid-phase *)
  in
  let runtime_counter _ring _at c v =
    if counting st && c = Runtime_events.EV_C_MINOR_ALLOCATED then
      st.minor_bytes <- st.minor_bytes +. float_of_int v
  in
  let lost_events _ring n = if counting st then st.lost <- st.lost + n in
  {
    cursor = Runtime_events.create_cursor source;
    callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~runtime_counter
        ~lost_events ();
    stats = st;
  }

let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

(* Events already in the ring belong to the state before the switch. *)
let set_counting t on =
  poll t;
  let st = t.stats in
  match (on, st.since) with
  | true, None -> st.since <- Some (Spans.now ())
  | false, Some t0 ->
    st.window_s <- st.window_s +. Spans.secs t0 (Spans.now ());
    st.since <- None
  | _ -> ()

let close t =
  set_counting t false;
  Runtime_events.free_cursor t.cursor

(* The gc.* per-layer metrics of the counted window. [gc.pause_frac] is
   the share of each domain's time spent in pauses, so a stop-the-world
   pause of two domains counts once. *)
let metrics t ~ops =
  let s = t.stats in
  let words = s.minor_bytes /. 8.0 in
  [
    ("gc.minor_mwords", words /. 1e6);
    ("gc.minor_kwords_per_op", if ops > 0 then words /. 1e3 /. float_of_int ops else 0.0);
    ("gc.major_collections", float_of_int s.majors);
    ("gc.pause_ms", 1000.0 *. s.pause_s);
    ("gc.pause_ms_max", 1000.0 *. s.pause_max_s);
    ( "gc.pause_frac",
      if s.window_s > 0.0 then s.pause_s /. s.window_s /. float_of_int (Stdlib.max 1 s.domains)
      else 0.0 );
    ("gc.lost_events", float_of_int s.lost);
  ]
