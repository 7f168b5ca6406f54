type file = int

(* [data] is the caller's initial array, shared (not copied) until the
   first [write] or [truncate]; [owned] says it has been copied since. *)
type entry = {
  fname : string;
  mutable data : int array;
  mutable len : int;
  mutable owned : bool;
}

type t = { mutable files : entry array; mutable count : int }

let create () = { files = [||]; count = 0 }

let add_file t ~name init =
  let e = { fname = name; data = init; len = Array.length init; owned = false } in
  if t.count = Array.length t.files then begin
    let cap = Stdlib.max 4 (2 * Array.length t.files) in
    let files' = Array.make cap e in
    Array.blit t.files 0 files' 0 t.count;
    t.files <- files'
  end;
  t.files.(t.count) <- e;
  t.count <- t.count + 1;
  t.count - 1

let lookup t name =
  let rec go i =
    if i >= t.count then None
    else if t.files.(i).fname = name then Some i
    else go (i + 1)
  in
  go 0

let entry t f =
  if f < 0 || f >= t.count then invalid_arg "Io: bad file handle";
  t.files.(f)

let size t f = (entry t f).len

let read t f ~off =
  let e = entry t f in
  if off < 0 then invalid_arg "Io.read: negative offset";
  if off >= e.len then 0 else e.data.(off)

(* Make [e.data] private and at least [needed] words long. *)
let grow e needed =
  if needed > Array.length e.data then begin
    let cap = Stdlib.max needed (Stdlib.max 16 (2 * Array.length e.data)) in
    let data' = Array.make cap 0 in
    Array.blit e.data 0 data' 0 e.len;
    e.data <- data'
  end
  else if not e.owned then e.data <- Array.copy e.data;
  e.owned <- true

let write t f ~off v =
  let e = entry t f in
  if off < 0 then invalid_arg "Io.write: negative offset";
  grow e (off + 1);
  e.data.(off) <- v;
  if off >= e.len then e.len <- off + 1

let truncate t f n =
  let e = entry t f in
  if n < 0 then invalid_arg "Io.truncate";
  grow e n;
  if n > e.len then Array.fill e.data e.len (n - e.len) 0;
  e.len <- n

let contents t f =
  let e = entry t f in
  Array.sub e.data 0 e.len
