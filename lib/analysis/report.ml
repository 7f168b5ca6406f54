type bar = { label : string; value : float; dnc : bool }
type row = { row_name : string; bars : bar list }

type figure = {
  id : string;
  title : string;
  rows : row list;
  notes : string list;
}

let harmonic_mean xs =
  match xs with
  | [] -> nan
  | _ ->
    let n = float_of_int (List.length xs) in
    n /. List.fold_left (fun acc x -> acc +. (1.0 /. x)) 0.0 xs

let hm_row fig =
  match fig.rows with
  | [] -> None
  | first :: _ ->
    let labels = List.map (fun b -> b.label) first.bars in
    let same_shape =
      List.for_all
        (fun r -> List.map (fun b -> b.label) r.bars = labels)
        fig.rows
    in
    if not same_shape then None
    else
      let bars =
        List.map
          (fun label ->
            let values =
              List.filter_map
                (fun r ->
                  match List.find_opt (fun b -> b.label = label) r.bars with
                  | Some b when not b.dnc -> Some b.value
                  | Some _ | None -> None)
                fig.rows
            in
            { label; value = harmonic_mean values; dnc = values = [] })
          labels
      in
      Some { row_name = "HM"; bars }

let fmt_bar b = if b.dnc then "DNC" else Printf.sprintf "%.2f" b.value

let render_table ppf ~title ~header rows =
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri
      (fun i c -> if i < ncols then widths.(i) <- Stdlib.max widths.(i) (String.length c))
      cells
  in
  measure header;
  List.iter measure rows;
  let pad i c =
    let w = if i < ncols then widths.(i) else String.length c in
    let fill = String.make (Stdlib.max 0 (w - String.length c)) ' ' in
    if i = 0 then c ^ fill else fill ^ c
  in
  let line cells =
    Format.fprintf ppf "%s@."
      (String.concat "  " (List.mapi pad cells))
  in
  Format.fprintf ppf "%s@." title;
  line header;
  Format.fprintf ppf "%s@."
    (String.make (Array.fold_left ( + ) (2 * (ncols - 1)) widths) '-');
  List.iter line rows

let render_bar_chart ppf fig =
  let clip = 4.0 in
  let width = 48 in
  Format.fprintf ppf "%s — %s@." fig.id fig.title;
  let name_w =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc b ->
            Stdlib.max acc (String.length r.row_name + String.length b.label + 1))
          acc r.bars)
      8 fig.rows
  in
  List.iter
    (fun r ->
      List.iter
        (fun b ->
          let v = if b.dnc then clip else Float.min clip b.value in
          let n = int_of_float (v /. clip *. float_of_int width) in
          let clipped = b.dnc || b.value > clip in
          let label = r.row_name ^ "/" ^ b.label in
          Format.fprintf ppf "%-*s |%s%s %s@." name_w label
            (String.make (Stdlib.max 0 n) '#')
            (if clipped then ">" else "")
            (fmt_bar b))
        r.bars;
      Format.fprintf ppf "@.")
    fig.rows;
  Format.fprintf ppf "(scale: 0 .. %.1fx relative to Pthreads; # = %.3fx)@." clip
    (clip /. float_of_int width)

let render_figure ppf fig =
  let rows =
    fig.rows @ (match hm_row fig with Some r -> [ r ] | None -> [])
  in
  let header =
    "program"
    :: (match fig.rows with
       | r :: _ -> List.map (fun b -> b.label) r.bars
       | [] -> [])
  in
  let body =
    List.map (fun r -> r.row_name :: List.map fmt_bar r.bars) rows
  in
  render_table ppf ~title:(Printf.sprintf "%s — %s" fig.id fig.title) ~header body;
  List.iter (fun n -> Format.fprintf ppf "note: %s@." n) fig.notes
