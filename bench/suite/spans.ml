(* Host-time measurement for the benchmark: a monotonic clock, and spans
   recorded around each call the benchmark makes into a layer's public
   function. Recording is off by default, so an untraced run pays one
   branch per call; a traced run keeps every span in memory and writes
   them once, at exit, as Chrome trace-event JSON (Perfetto and
   chrome://tracing load it). *)

let now () = Monotonic_clock.now ()
let secs t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  req : int;  (* request id, -1 when the span serves no single request *)
  t0 : int64;
  t1 : int64;
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

(* GC accounting follows the traced windows: [window] is called with
   [true] when recording starts and [false] when it stops; [after_span]
   runs as each span closes. *)
let window : (bool -> unit) ref = ref ignore
let after_span = ref ignore

let start () =
  !window true;
  on := true

let stop () =
  on := false;
  !window false

(* Run [f]; return its value and the host seconds it took. When recording
   is on, also keep a span named [name] nested under the innermost open
   span. *)
let timed ?(req = -1) name f =
  let t0 = now () in
  if not !on then begin
    let v = f () in
    (v, secs t0 (now ()))
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let finish () =
      let t1 = now () in
      current := parent;
      recorded := { id; name; parent; req; t0; t1 } :: !recorded;
      !after_span ();
      secs t0 t1
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let call ?req name f = fst (timed ?req name f)

(* Self time: a span's duration minus the part its children cover. *)
type layer = { l_name : string; l_self_s : float; l_calls : int; l_durs : float list }

let layers spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (secs s.t0 s.t1
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let by = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = secs s.t0 s.t1 in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let l =
        Option.value
          ~default:{ l_name = s.name; l_self_s = 0.0; l_calls = 0; l_durs = [] }
          (Hashtbl.find_opt by s.name)
      in
      Hashtbl.replace by s.name
        {
          l with
          l_self_s = l.l_self_s +. self;
          l_calls = l.l_calls + 1;
          l_durs = d :: l.l_durs;
        })
    spans;
  Hashtbl.fold (fun _ l acc -> l :: acc) by []
  |> List.sort (fun a b -> compare b.l_self_s a.l_self_s)

let write path =
  let spans = List.rev !recorded in
  let base = match spans with [] -> 0L | s :: _ -> s.t0 in
  let us t = Int64.to_float (Int64.sub t base) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        (if i = 0 then "" else ",")
        s.name (us s.t0)
        (us s.t1 -. us s.t0)
        s.id s.parent s.req)
    spans;
  output_string oc "\n]}\n";
  close_out oc
