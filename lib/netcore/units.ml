
let ethernet_overhead_bytes = 24

let pps_of_bps bps ~frame_bytes =
  if frame_bytes <= 0 then invalid_arg "Units.pps_of_bps: frame_bytes";
  bps /. (8.0 *. float_of_int (frame_bytes + ethernet_overhead_bytes))

let bps_of_pps pps ~frame_bytes =
  pps *. 8.0 *. float_of_int (frame_bytes + ethernet_overhead_bytes)
