type summary = {
  mutable n : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  maxima : (string, int ref) Hashtbl.t;
  summaries : (string, summary) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    maxima = Hashtbl.create 8;
    summaries = Hashtbl.create 8;
  }

let counter t k =
  match Hashtbl.find_opt t.counters k with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters k r;
    r

let incr t k = Stdlib.incr (counter t k)
let add t k v = counter t k := !(counter t k) + v

type handle = { h_stats : t; h_key : string; mutable h_cell : int ref option }

let handle t k = { h_stats = t; h_key = k; h_cell = Hashtbl.find_opt t.counters k }

let bump h =
  match h.h_cell with
  | Some r -> Stdlib.incr r
  | None ->
    let r = counter h.h_stats h.h_key in
    h.h_cell <- Some r;
    Stdlib.incr r

let set_max t k v =
  match Hashtbl.find_opt t.maxima k with
  | Some r -> if v > !r then r := v
  | None -> Hashtbl.add t.maxima k (ref v)

let summary t k =
  match Hashtbl.find_opt t.summaries k with
  | Some s -> s
  | None ->
    let s = { n = 0; sum = 0.0; min_v = infinity; max_v = neg_infinity } in
    Hashtbl.add t.summaries k s;
    s

let feed s v =
  s.n <- s.n + 1;
  s.sum <- s.sum +. v;
  if v < s.min_v then s.min_v <- v;
  if v > s.max_v then s.max_v <- v

let observe t k v = feed (summary t k) v

type sampler = { s_stats : t; s_key : string; mutable s_cell : summary option }

let sampler t k = { s_stats = t; s_key = k; s_cell = Hashtbl.find_opt t.summaries k }

let sample sp v =
  match sp.s_cell with
  | Some s -> feed s v
  | None ->
    let s = summary sp.s_stats sp.s_key in
    sp.s_cell <- Some s;
    feed s v

let get t k =
  match Hashtbl.find_opt t.counters k with
  | Some r -> !r
  | None -> (
    match Hashtbl.find_opt t.maxima k with Some r -> !r | None -> 0)

let mean t k =
  match Hashtbl.find_opt t.summaries k with
  | Some s when s.n > 0 -> s.sum /. float_of_int s.n
  | Some _ | None -> 0.0

let count t k =
  match Hashtbl.find_opt t.summaries k with Some s -> s.n | None -> 0

let merge_into ~dst src =
  Hashtbl.iter (fun k r -> add dst k !r) src.counters;
  Hashtbl.iter (fun k r -> set_max dst k !r) src.maxima;
  Hashtbl.iter
    (fun k s ->
      let d = summary dst k in
      d.n <- d.n + s.n;
      d.sum <- d.sum +. s.sum;
      if s.min_v < d.min_v then d.min_v <- s.min_v;
      if s.max_v > d.max_v then d.max_v <- s.max_v)
    src.summaries

let to_assoc t =
  let acc = ref [] in
  Hashtbl.iter (fun k r -> acc := (k, float_of_int !r) :: !acc) t.counters;
  Hashtbl.iter (fun k r -> acc := (k ^ ".max", float_of_int !r) :: !acc) t.maxima;
  Hashtbl.iter
    (fun k s ->
      if s.n > 0 then acc := (k ^ ".mean", s.sum /. float_of_int s.n) :: !acc)
    t.summaries;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let pp ppf t =
  let items = to_assoc t in
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%-32s %.3f@," k v) items;
  Format.fprintf ppf "@]"
