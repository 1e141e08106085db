
let ethernet_overhead_bytes = 24

let pps_of_bps bps ~frame_bytes =
  if frame_bytes <= 0 then invalid_arg "Units.pps_of_bps: frame_bytes";
  bps /. (8.0 *. float_of_int (frame_bytes + ethernet_overhead_bytes))

let bps_of_pps pps ~frame_bytes =
  pps *. 8.0 *. float_of_int (frame_bytes + ethernet_overhead_bytes)

(* "90" / "90s" / "15m" / "2h" / "7d" / "1w" -> seconds.  The CLI's
   duration syntax for telemetry retention and downsample resolution. *)
let parse_duration s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then Error "empty duration"
  else begin
    let unit_scale, digits =
      match s.[n - 1] with
      | 's' -> (Some 1.0, String.sub s 0 (n - 1))
      | 'm' -> (Some 60.0, String.sub s 0 (n - 1))
      | 'h' -> (Some 3600.0, String.sub s 0 (n - 1))
      | 'd' -> (Some 86400.0, String.sub s 0 (n - 1))
      | 'w' -> (Some 604800.0, String.sub s 0 (n - 1))
      | '0' .. '9' | '.' -> (Some 1.0, s)
      | _ -> (None, s)
    in
    match unit_scale with
    | None -> Error (Printf.sprintf "bad duration unit in %S (use s/m/h/d/w)" s)
    | Some scale -> (
      match float_of_string_opt digits with
      | Some v when v > 0.0 && Float.is_finite v -> Ok (v *. scale)
      | _ -> Error (Printf.sprintf "bad duration %S (expected e.g. 90s, 15m, 2h, 7d)" s))
  end
