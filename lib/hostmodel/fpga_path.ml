type config = { sample_1_in : int; truncation : int }

let default_config = { sample_1_in = 1; truncation = 200 }

type stats = { seen : int; sampled : int; bytes_in : int; bytes_out : int }

(* The offload executes as a compiled P4 pipeline, exactly as Patchwork
   compiles its configuration onto the Alveo NIC.  Its filter table
   matches everything: the capture has already applied the user's
   filter. *)
let create config () =
  if config.sample_1_in < 1 then invalid_arg "Fpga_path.create: sample_1_in";
  if config.truncation < 1 then invalid_arg "Fpga_path.create: truncation";
  let pipeline =
    P4_pipeline.Compile.of_filter ~truncation:config.truncation
      ~sample_1_in:config.sample_1_in Packet.Filter.True
  in
  let seen = ref 0 and bytes_in = ref 0 and bytes_out = ref 0 in
  let forwards frame =
    incr seen;
    bytes_in := !bytes_in + Packet.Frame.wire_length frame;
    let verdict = P4_pipeline.process pipeline frame in
    bytes_out := !bytes_out + verdict.P4_pipeline.forwarded_bytes;
    verdict.P4_pipeline.frame <> None
  in
  let stats () =
    {
      seen = !seen;
      sampled =
        (if config.sample_1_in <= 1 then
           P4_pipeline.counter pipeline "edit.emitted"
         else P4_pipeline.counter pipeline "sample.kept");
      bytes_in = !bytes_in;
      bytes_out = !bytes_out;
    }
  in
  (forwards, stats)

let host_relief config ~offered_pps ~avg_frame_size =
  let pps = offered_pps /. float_of_int config.sample_1_in in
  let stored = Float.min (float_of_int config.truncation) avg_frame_size in
  (pps, pps *. stored)

(* This path's identity in the loss-attribution ledger. *)
let host_path = Obs.Ledger.Fpga
