type config = { sample_1_in : int; truncation : int }

let default_config = { sample_1_in = 1; truncation = 200 }

(* Patchwork compiles the offload onto the Alveo NIC as a P4 program: a
   filter table matching everything, since the capture has already
   applied the user's filter, a 1-in-N sampler and a truncating editor.
   That program forwards the 0th, Nth, 2Nth, ... frame it is shown, so
   one counter gives its verdict without reading the frame; the tests
   hold it to the compiled program. *)
let create config =
  if config.sample_1_in < 1 then invalid_arg "Fpga_path.create: sample_1_in";
  let seen = ref 0 in
  fun () ->
    let keep = !seen mod config.sample_1_in = 0 in
    incr seen;
    keep

let host_relief config ~offered_pps ~avg_frame_size =
  let pps = offered_pps /. float_of_int config.sample_1_in in
  let stored = Float.min (float_of_int config.truncation) avg_frame_size in
  (pps, pps *. stored)

(* This path's identity in the loss-attribution ledger. *)
let host_path = Obs.Ledger.Fpga
