type capture_method =
  | Tcpdump
  | Dpdk of { cores : int }
  | Fpga_dpdk of { cores : int; sample_1_in : int }

type port_selection =
  | Busiest_bias of int
  | Fixed_ports of int list
  | Uplinks_only
  | All_ports_round_robin

type mode = All_experiments | Single_experiment of (string * int list) list

type t = {
  mode : mode;
  sample_duration : float;
  sample_interval : float;
  samples_per_run : int;
  truncation : int;
  capture_method : capture_method;
  port_selection : port_selection;
  filter : Packet.Filter.t;
  anonymize : bool;
  emit_pcap : bool;
  max_frames_per_sample : int;
  instance_crash_prob : float;
  host_profile : Hostmodel.Host_profile.t;
  pool_size : int;
}

let default =
  {
    mode = All_experiments;
    sample_duration = 20.0;
    sample_interval = 300.0;
    samples_per_run = 12;
    truncation = 200;
    capture_method = Tcpdump;
    port_selection = Busiest_bias 4;
    filter = Packet.Filter.True;
    anonymize = false;
    emit_pcap = false;
    max_frames_per_sample = 20_000;
    instance_crash_prob = 0.001;
    host_profile = Hostmodel.Host_profile.default;
    pool_size = Parallel.Pool.default_size ();
  }

let validate t =
  let fail msg = Error msg in
  if t.sample_duration <= 0.0 then fail "sample_duration must be positive"
  else if t.sample_interval < t.sample_duration then
    fail "sample_interval must be at least sample_duration"
  else if t.samples_per_run <= 0 then fail "samples_per_run must be positive"
  else if t.truncation <= 0 then fail "truncation must be positive"
  else if t.max_frames_per_sample <= 0 then fail "max_frames_per_sample must be positive"
  else if t.instance_crash_prob < 0.0 || t.instance_crash_prob > 1.0 then
    fail "instance_crash_prob must be a probability"
  else if t.pool_size < 1 then fail "pool_size must be at least 1"
  else begin
    match t.port_selection with
    | Busiest_bias n when n < 2 -> fail "busiest-bias needs n >= 2"
    | Fixed_ports [] -> fail "fixed port list is empty"
    | Busiest_bias _ | Fixed_ports _ | Uplinks_only | All_ports_round_robin -> (
      match t.capture_method with
      | (Dpdk { cores } | Fpga_dpdk { cores; _ }) when cores < 1 ->
        fail "capture needs at least one core"
      | Fpga_dpdk { sample_1_in; _ } when sample_1_in < 1 ->
        fail "FPGA sample_1_in must be at least 1"
      | Dpdk _ | Fpga_dpdk _ | Tcpdump -> Ok ())
  end
