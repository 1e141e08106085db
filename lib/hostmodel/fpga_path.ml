type config = { sample_1_in : int; truncation : int }

let default_config = { sample_1_in = 1; truncation = 200 }

type stats = { seen : int; sampled : int; bytes_in : int; bytes_out : int }

(* Patchwork compiles the offload onto the Alveo NIC as a P4 program
   (P4_pipeline.Compile.of_filter): a filter table matching everything,
   since the capture has already applied the user's filter, a 1-in-N
   sampler and a truncating editor.  That program forwards the 0th, Nth,
   2Nth, ... frame it sees, [min wire truncation] bytes of each, so one
   counter gives its verdict; the tests hold it to the compiled
   program. *)
let create config () =
  if config.sample_1_in < 1 then invalid_arg "Fpga_path.create: sample_1_in";
  if config.truncation < 1 then invalid_arg "Fpga_path.create: truncation";
  let seen = ref 0 and sampled = ref 0 and bytes_in = ref 0 and bytes_out = ref 0 in
  let forwards frame =
    let wire = Packet.Frame.wire_length frame in
    let keep = !seen mod config.sample_1_in = 0 in
    incr seen;
    bytes_in := !bytes_in + wire;
    if keep then begin
      incr sampled;
      bytes_out := !bytes_out + min wire config.truncation
    end;
    keep
  in
  let stats () =
    { seen = !seen; sampled = !sampled; bytes_in = !bytes_in; bytes_out = !bytes_out }
  in
  (forwards, stats)

let host_relief config ~offered_pps ~avg_frame_size =
  let pps = offered_pps /. float_of_int config.sample_1_in in
  let stored = Float.min (float_of_int config.truncation) avg_frame_size in
  (pps, pps *. stored)

(* This path's identity in the loss-attribution ledger. *)
let host_path = Obs.Ledger.Fpga
