open Netcore
module H = Packet.Headers

type spec = {
  flow_id : int;
  template : H.header list;
  frame_size : Dist.t;
  avg_frame_size : float;
  byte_rate : float;
  start_time : float;
  duration : float;
  subflows : int;
}

let jumbo_mtu_wire = 9000

let make ~flow_id ~template ~frame_size ~avg_frame_size ~byte_rate ~start_time
    ~duration ?(subflows = 1) () =
  (match Packet.Frame.validate template with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Flow_model.make: bad template: " ^ msg));
  if avg_frame_size <= 0.0 then invalid_arg "Flow_model.make: avg_frame_size";
  if byte_rate < 0.0 then invalid_arg "Flow_model.make: negative byte_rate";
  if duration < 0.0 then invalid_arg "Flow_model.make: negative duration";
  if subflows < 1 then invalid_arg "Flow_model.make: subflows must be >= 1";
  { flow_id; template; frame_size; avg_frame_size; byte_rate; start_time; duration;
    subflows }

let frame_rate spec = spec.byte_rate /. spec.avg_frame_size
let end_time spec = spec.start_time +. spec.duration

let header_total spec =
  List.fold_left (fun acc h -> acc + H.size h) 0 spec.template

(* Deterministic per-subflow variation: offset the innermost IP host
   bits and the L4 source port so each subflow is a distinct 5-tuple. *)
let subflow_mix flow_id k =
  let h = Int64.of_int ((flow_id * 1_000_003) + k) in
  let mixed =
    Int64.to_int
      (Int64.shift_right_logical
         (Int64.mul h 0x9E3779B97F4A7C15L)
         40)
  in
  mixed land 0xFFFFFF

(* How far a flow's frame [index] advances the TCP seq of its frame at
   index 0, as if every frame before it had carried [payload_len] bytes
   and one sequence number more; every IPv4 ident advances by [index].
   [instantiate] advances a template's fields by these, and
   [stamp_draw] a compiled class frame's bytes. *)
let seq_advance ~index ~payload_len = index * (payload_len + 1)

(* Randomize per-frame mutable fields so materialized frames look like a
   real packet stream rather than copies of one packet.  [subflow] = 0
   keeps the template's own endpoints. *)
let instantiate spec ~payload_len ~frame_index ~subflow =
  let mix = if subflow = 0 then 0 else subflow_mix spec.flow_id subflow in
  (* Only the innermost IP/L4 headers vary; walk with a flag flipped at
     the last Ethernet so tunnel outer headers stay fixed. *)
  let last_eth_index =
    List.fold_left
      (fun (i, last) h ->
        match h with H.Ethernet _ -> (i + 1, i) | _ -> (i + 1, last))
      (0, -1) spec.template
    |> snd
  in
  let headers =
    List.mapi
      (fun i (h : H.header) : H.header ->
        let inner = i >= last_eth_index in
        match h with
        | H.Ipv4 ip when inner ->
          let vary addr =
            if mix = 0 then addr
            else
              Ipv4_addr.of_int32
                (Int32.logor
                   (Int32.logand (Ipv4_addr.to_int32 addr) 0xFFFF0000l)
                   (Int32.of_int (mix land 0xFFFF)))
          in
          H.Ipv4
            {
              ip with
              src = vary ip.src;
              ident = (ip.ident + frame_index) land 0xFFFF;
            }
        | H.Ipv4 ip -> H.Ipv4 { ip with ident = (ip.ident + frame_index) land 0xFFFF }
        | H.Tcp tcp when inner ->
          H.Tcp
            {
              tcp with
              src_port = (if mix = 0 then tcp.src_port else 20000 + (mix mod 40000));
              seq =
                Int32.add tcp.seq
                  (Int32.of_int (seq_advance ~index:frame_index ~payload_len));
            }
        | H.Udp udp when inner && mix <> 0 ->
          H.Udp { udp with src_port = 20000 + (mix mod 40000) }
        | h -> h)
      spec.template
  in
  Packet.Frame.make headers ~payload_len

let overlap spec ~start_time ~end_time:window_end =
  let t0 = Float.max start_time spec.start_time in
  let t1 = Float.min window_end (spec.start_time +. spec.duration) in
  if t1 > t0 then Some (t0, t1) else None

let expected_frames spec ~start_time ~end_time =
  match overlap spec ~start_time ~end_time with
  | None -> 0.0
  | Some (t0, t1) -> frame_rate spec *. (t1 -. t0)

(* In-place heap sort of unboxed floats.  [Array.sort compare] boxes
   every element it reads from a float array: about 66 minor words and
   three times the time per frame drawn.  Equal floats are
   indistinguishable, so any correct sort yields the same array. *)
let sort_floats (a : float array) =
  let rec sift i size =
    let l = (2 * i) + 1 in
    if l < size then begin
      let c = if l + 1 < size && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        let t = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- t;
        sift c size
      end
    end
  in
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for k = n - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(k);
    a.(k) <- t;
    sift 0 k
  done

(* A window's random draws, in the one order every consumer shares:
   the Poisson count, every timestamp, then per frame in time order its
   wire size and (for aggregates) its subflow.  [wire_len] is the wire
   length of the frame [draw_frame] builds for the draw: header sizes do
   not depend on the fields [instantiate] varies, and [size] is at least
   [min_wire] unless the stack alone exceeds the MTU, so the frame never
   needs padding. *)
let iter_draws spec rng ~start_time ~end_time f =
  match overlap spec ~start_time ~end_time with
  | None -> ()
  | Some (t0, t1) ->
    let mean = frame_rate spec *. (t1 -. t0) in
    let count = Rng.poisson rng ~mean in
    let headers = header_total spec in
    let min_wire = max Packet.Frame.min_wire_size headers in
    let times = Array.init count (fun _ -> t0 +. (Rng.float rng *. (t1 -. t0))) in
    sort_floats times;
    Array.iteri
      (fun index ts ->
        let size = Dist.sample_int spec.frame_size rng in
        let size = min jumbo_mtu_wire (max min_wire size) in
        let wire_len = headers + max 0 (size - headers) in
        let subflow = if spec.subflows = 1 then 0 else Rng.int rng spec.subflows in
        f ~index ~ts ~wire_len ~subflow)
      times

let draw_frame spec ~index ~wire_len ~subflow =
  instantiate spec ~payload_len:(wire_len - header_total spec) ~frame_index:index
    ~subflow

let stamp_draw w ~ts template ~index ~wire_len =
  let payload_len = wire_len - Packet.Codec.header_length template in
  Packet.Pcap.Writer.add_stamp w ~ts template ~ident:index
    ~seq:(seq_advance ~index ~payload_len) ~payload_len
