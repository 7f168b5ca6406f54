(* Client driver for the daemon protocol: a demuxing connection (one
   reader systhread routes replies to per-request mailboxes by id, and
   op replies without an id to a FIFO), plus scripted and open-loop load
   generators built on it. The bench's service section and `gprs_run
   client` both drive the daemon exclusively through this module. *)

type t = {
  fd : Unix.file_descr;
  outc : out_channel;
  wlock : Mutex.t;
  mutex : Mutex.t;
  cond : Condition.t;
  finals : (string, Json.t * float) Hashtbl.t;  (* id -> done/error, arrival *)
  anon : (Json.t * float) Queue.t;  (* op replies without a request id *)
  mutable closed : bool;
  mutable reader_thread : Thread.t option;
  mutable released : bool;  (* [close] ran; guarded by [wlock] *)
}

let sockaddr_of = function
  | Daemon.Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
  | Daemon.Unix_sock path -> Unix.ADDR_UNIX path

let reader c inc () =
  let rec loop () =
    match input_line inc with
    | line -> (
      (match Json.of_string line with
      | Error _ -> ()
      | Ok j -> (
        let event = Result.value ~default:"" (Json.str ~default:"" "event" j) in
        let id = Result.value ~default:"" (Json.str ~default:"" "id" j) in
        let now = Unix.gettimeofday () in
        match event with
        | "queued" | "start" -> () (* progress; the final event settles *)
        | "done" | "error" when id <> "" ->
          Mutex.lock c.mutex;
          Hashtbl.replace c.finals id (j, now);
          Condition.broadcast c.cond;
          Mutex.unlock c.mutex
        | _ ->
          Mutex.lock c.mutex;
          Queue.push (j, now) c.anon;
          Condition.broadcast c.cond;
          Mutex.unlock c.mutex));
      loop ())
    | exception _ ->
      Mutex.lock c.mutex;
      c.closed <- true;
      Condition.broadcast c.cond;
      Mutex.unlock c.mutex
  in
  loop ()

(* The daemon may not be accepting yet (tests, the smoke script and CI
   start it moments before connecting): retry the initial connect with
   bounded exponential backoff — 50 ms doubling per attempt, capped at
   2 s a step — instead of pushing the race to every caller. [retries]
   is the number of re-attempts after the first failure. *)
let connect ?(retries = 3) addr =
  let rec go n delay =
    let fd =
      Unix.socket
        (match addr with Daemon.Tcp _ -> Unix.PF_INET | _ -> Unix.PF_UNIX)
        Unix.SOCK_STREAM 0
    in
    match Unix.connect fd (sockaddr_of addr) with
    | () -> fd
    | exception e ->
      (try Unix.close fd with _ -> ());
      if n <= 0 then raise e
      else begin
        Unix.sleepf delay;
        go (n - 1) (Stdlib.min 2.0 (delay *. 2.))
      end
  in
  let fd = go (Stdlib.max 0 retries) 0.05 in
  let c =
    {
      fd;
      outc = Unix.out_channel_of_descr fd;
      wlock = Mutex.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      finals = Hashtbl.create 64;
      anon = Queue.create ();
      closed = false;
      reader_thread = None;
      released = false;
    }
  in
  c.reader_thread <- Some (Thread.create (reader c (Unix.in_channel_of_descr fd)) ());
  c

(* Shut the socket down before closing it: that ends the reader thread's
   read with EOF, and joining the thread first means it can never read
   the descriptor number after the close, when a new socket may reuse it
   and the reader would steal that socket's traffic. *)
let close c =
  Mutex.lock c.wlock;
  let first = not c.released in
  c.released <- true;
  if first then (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ());
  Mutex.unlock c.wlock;
  if first then begin
    Option.iter Thread.join c.reader_thread;
    try Unix.close c.fd with _ -> ()
  end

exception Closed

(* A write the peer can no longer take (EPIPE, a reset, a descriptor
   already closed) is the same event the reader reports as EOF. *)
let send c j =
  Mutex.lock c.wlock;
  let r =
    try
      output_string c.outc (Json.to_string j);
      output_char c.outc '\n';
      flush c.outc;
      Ok ()
    with e -> Error e
  in
  Mutex.unlock c.wlock;
  match r with
  | Ok () -> ()
  | Error (Sys_error _ | Unix.Unix_error _) -> raise Closed
  | Error e -> raise e

(* Final reply (done or error) for [id], with its host arrival time. *)
let await c ~id =
  Mutex.lock c.mutex;
  let rec go () =
    match Hashtbl.find_opt c.finals id with
    | Some (j, at) ->
      Hashtbl.remove c.finals id;
      Mutex.unlock c.mutex;
      (j, at)
    | None ->
      if c.closed then begin
        Mutex.unlock c.mutex;
        raise Closed
      end;
      Condition.wait c.cond c.mutex;
      go ()
  in
  go ()

(* Send an id-less op and take the next id-less reply. The protocol
   answers ops in order per connection, so callers that serialize their
   ops (everyone here) get the matching reply. *)
let op c j =
  send c j;
  Mutex.lock c.mutex;
  let rec go () =
    if not (Queue.is_empty c.anon) then begin
      let j, _ = Queue.pop c.anon in
      Mutex.unlock c.mutex;
      j
    end
    else if c.closed then begin
      Mutex.unlock c.mutex;
      raise Closed
    end
    else begin
      Condition.wait c.cond c.mutex;
      go ()
    end
  in
  go ()

let ping c = ignore (op c (Json.Obj [ ("op", Json.Str "ping") ]))
let stats c = op c (Json.Obj [ ("op", Json.Str "stats") ])
let cache_clear c = ignore (op c (Json.Obj [ ("op", Json.Str "cache_clear") ]))
let shutdown c = send c (Json.Obj [ ("op", Json.Str "shutdown") ])

let fault c fields =
  op c (Json.Obj (("op", Json.Str "fault") :: fields))

(* --- scripted (closed-loop) driving ------------------------------------- *)

let run_sync c scn =
  send c (Scenario.to_json scn);
  fst (await c ~id:scn.Scenario.id)

(* One request round-trip, timed from send to final reply. *)
let timed_run c scn =
  let t0 = Unix.gettimeofday () in
  let j = run_sync c scn in
  (j, 1000. *. (Unix.gettimeofday () -. t0))

(* --- open-loop load ----------------------------------------------------- *)

type load = {
  sent : int;
  ok : int;
  failed : int;  (* error replies, shed included *)
  wall_s : float;
  rps : float;  (* completed per second of wall time *)
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(Stdlib.min (n - 1)
              (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1
               |> Stdlib.max 0))

(* Open-loop: arrivals at t0 + i/rps regardless of completions, the
   standard tail-latency methodology — queueing delay from a saturated
   server lands in the measured latency instead of throttling the
   client. Each request gets a distinct seed so requests are distinct
   work units (no coalescing shortcut). Latency is final-reply arrival
   minus *scheduled* send time, charging any sender lag to the server's
   tail like a real arrival process would. *)
let open_loop c ~base ~n ~rps =
  let t0 = Unix.gettimeofday () +. 0.01 in
  let sched = Array.init n (fun i -> t0 +. (float_of_int i /. rps)) in
  let sender () =
    for i = 0 to n - 1 do
      let now = Unix.gettimeofday () in
      if sched.(i) > now then Unix.sleepf (sched.(i) -. now);
      let scn =
        {
          base with
          Scenario.id = Printf.sprintf "ol%d" i;
          seed = base.Scenario.seed + i;
        }
      in
      send c (Scenario.to_json scn)
    done
  in
  let th = Thread.create sender () in
  let lat = Array.make n 0. in
  let ok = ref 0 and failed = ref 0 in
  for i = 0 to n - 1 do
    let j, at = await c ~id:(Printf.sprintf "ol%d" i) in
    lat.(i) <- 1000. *. (at -. sched.(i));
    match Json.str ~default:"" "event" j with
    | Ok "done" -> incr ok
    | _ -> incr failed
  done;
  Thread.join th;
  let wall = Unix.gettimeofday () -. t0 in
  Array.sort compare lat;
  let mean = Array.fold_left ( +. ) 0. lat /. float_of_int (Stdlib.max 1 n) in
  {
    sent = n;
    ok = !ok;
    failed = !failed;
    wall_s = wall;
    rps = (if wall > 0. then float_of_int !ok /. wall else 0.);
    mean_ms = mean;
    p50_ms = percentile lat 50.;
    p99_ms = percentile lat 99.;
  }
