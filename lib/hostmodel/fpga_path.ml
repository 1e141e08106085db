(* Patchwork compiles the offload onto the Alveo NIC as a P4 program: a
   filter table matching everything, since the capture has already
   applied the user's filter, a 1-in-N sampler and a truncating editor
   at the capture's snap length.  That program forwards the 0th, Nth,
   2Nth, ... frame it is shown, so one counter gives its verdict without
   reading the frame; the tests hold it to the compiled program. *)
let create ~sample_1_in =
  if sample_1_in < 1 then invalid_arg "Fpga_path.create: sample_1_in";
  let seen = ref 0 in
  fun () ->
    let keep = !seen mod sample_1_in = 0 in
    incr seen;
    keep

let host_relief ~sample_1_in ~truncation ~offered_pps ~avg_frame_size =
  let pps = offered_pps /. float_of_int sample_1_in in
  let stored = Float.min (float_of_int truncation) avg_frame_size in
  (pps, pps *. stored)

(* This path's identity in the loss-attribution ledger. *)
let host_path = Obs.Ledger.Fpga
