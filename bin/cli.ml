(* Argument converters shared by [gprs_run] and [paper]: a bad value is
   a usage error (exit 124), never an uncaught exception. *)

open Cmdliner

(* An int of at least 1: a machine with no context never progresses. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* A finite float greater than 0: a rate of 0, a negative or a NaN rate
   has no arrival schedule. *)
let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0.0 -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "expected a finite number > 0, got %S" s))
  in
  Arg.conv ~docv:(Arg.conv_docv Arg.float) (parse, Arg.conv_printer Arg.float)

(* A float held to one of [Run]'s input checks. *)
let checked check =
  let parse s =
    Result.bind (Arg.conv_parser Arg.float s) (fun f ->
        Result.map_error (fun m -> `Msg m) (check f))
  in
  Arg.conv ~docv:(Arg.conv_docv Arg.float) (parse, Arg.conv_printer Arg.float)

let scale = checked Run.check_scale
let rate = checked Run.check_rate
