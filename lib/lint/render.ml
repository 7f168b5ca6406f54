(* ASCII rendering of lint findings, in the house style of
   [Analysis.Report.render_table] (title, header, dashed rule, aligned
   columns; first column left-aligned). Kept local so [lint] depends
   only on [vm]. *)

let render_table ppf ~title ~header rows =
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri
      (fun i c ->
        if i < ncols then widths.(i) <- Stdlib.max widths.(i) (String.length c))
      cells
  in
  measure header;
  List.iter measure rows;
  let pad i c =
    let w = if i < ncols then widths.(i) else String.length c in
    let fill = String.make (Stdlib.max 0 (w - String.length c)) ' ' in
    c ^ fill
  in
  let rtrim s =
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do
      decr n
    done;
    String.sub s 0 !n
  in
  let line cells =
    Format.fprintf ppf "%s@." (rtrim (String.concat "  " (List.mapi pad cells)))
  in
  Format.fprintf ppf "%s@." title;
  line header;
  Format.fprintf ppf "%s@."
    (String.make (Array.fold_left ( + ) (2 * (ncols - 1)) widths) '-');
  List.iter line rows

let summary diags =
  let count sev =
    List.length
      (List.filter (fun d -> d.Diagnostic.severity = sev) diags)
  in
  let e = count Diagnostic.Error
  and w = count Diagnostic.Warning
  and i = count Diagnostic.Info in
  Printf.sprintf "%d error%s, %d warning%s, %d info" e
    (if e = 1 then "" else "s")
    w
    (if w = 1 then "" else "s")
    i

let pp ?(title = "GPRS-lint findings") ppf diags =
  match diags with
  | [] -> Format.fprintf ppf "%s: clean@." title
  | _ ->
    let rows =
      List.map
        (fun d ->
          [
            Diagnostic.severity_label d.Diagnostic.severity;
            Diagnostic.kind_label d.Diagnostic.kind;
            Diagnostic.site d;
            d.Diagnostic.instr;
            d.Diagnostic.message;
          ])
        diags
    in
    render_table ppf
      ~title:(Printf.sprintf "%s (%s)" title (summary diags))
      ~header:[ "severity"; "kind"; "site"; "instr"; "explanation" ]
      rows
