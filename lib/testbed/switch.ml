type dir = Rx | Tx
type mirror_dirs = Rx_only | Tx_only | Both

type counters = {
  tx_bytes : float;
  rx_bytes : float;
  tx_frames : float;
  rx_frames : float;
}

type attachment = {
  flow : int;
  port : int;
  dir : dir;
  byte_rate : float;
  frame_rate : float;
}

type port_state = {
  mutable tx_bytes_acc : float;
  mutable rx_bytes_acc : float;
  mutable tx_frames_acc : float;
  mutable rx_frames_acc : float;
  mutable tx_byte_rate : float;
  mutable rx_byte_rate : float;
  mutable tx_frame_rate : float;
  mutable rx_frame_rate : float;
  (* Extra Tx load induced by a mirror session whose destination is
     this port. *)
  mutable mirror_tx_byte_rate : float;
  mutable mirror_tx_frame_rate : float;
  mutable last_update : float;
}

type mirror = { mirror_id : int; src_port : int; dirs : mirror_dirs; dst_port : int }

type t = {
  engine : Simcore.Engine.t;
  site_name : string;
  line_rate : float;
  ports : port_state array;
  mutable mirrors : mirror list;
  flows : (int, attachment list) Hashtbl.t;
  mutable next_mirror_id : int;
}

let create engine ~site_name ~ports ~line_rate =
  if ports <= 0 then invalid_arg "Switch.create: need at least one port";
  {
    engine;
    site_name;
    line_rate;
    ports =
      Array.init ports (fun _ ->
          {
            tx_bytes_acc = 0.0;
            rx_bytes_acc = 0.0;
            tx_frames_acc = 0.0;
            rx_frames_acc = 0.0;
            tx_byte_rate = 0.0;
            rx_byte_rate = 0.0;
            tx_frame_rate = 0.0;
            rx_frame_rate = 0.0;
            mirror_tx_byte_rate = 0.0;
            mirror_tx_frame_rate = 0.0;
            last_update = Simcore.Engine.now engine;
          });
    mirrors = [];
    flows = Hashtbl.create 64;
    next_mirror_id = 0;
  }

let site_name t = t.site_name
let port_count t = Array.length t.ports
let line_rate t = t.line_rate

let check_port t port =
  if port < 0 || port >= Array.length t.ports then
    invalid_arg (Printf.sprintf "Switch: port %d out of range" port)

(* Bring a port's cumulative counters up to the current simulated time. *)
let refresh t port =
  let p = t.ports.(port) in
  let now = Simcore.Engine.now t.engine in
  let dt = now -. p.last_update in
  if dt > 0.0 then begin
    p.tx_bytes_acc <- p.tx_bytes_acc +. ((p.tx_byte_rate +. p.mirror_tx_byte_rate) *. dt);
    p.rx_bytes_acc <- p.rx_bytes_acc +. (p.rx_byte_rate *. dt);
    p.tx_frames_acc <- p.tx_frames_acc +. ((p.tx_frame_rate +. p.mirror_tx_frame_rate) *. dt);
    p.rx_frames_acc <- p.rx_frames_acc +. (p.rx_frame_rate *. dt);
    p.last_update <- now
  end

let mirrored_channel_rates t m =
  let p = t.ports.(m.src_port) in
  let tx = (p.tx_byte_rate, p.tx_frame_rate) and rx = (p.rx_byte_rate, p.rx_frame_rate) in
  match m.dirs with
  | Rx_only -> rx
  | Tx_only -> tx
  | Both -> (fst tx +. fst rx, snd tx +. snd rx)

(* Recompute the mirror-induced load on a session's destination port.
   Called whenever attachments or sessions change. *)
let recompute_mirror t m =
  refresh t m.dst_port;
  let byte_rate, frame_rate = mirrored_channel_rates t m in
  (* line_rate is bits/s; channel rates are bytes/s. *)
  let line_bytes = t.line_rate /. 8.0 in
  let dst = t.ports.(m.dst_port) in
  if byte_rate <= line_bytes then begin
    dst.mirror_tx_byte_rate <- byte_rate;
    dst.mirror_tx_frame_rate <- frame_rate
  end
  else begin
    dst.mirror_tx_byte_rate <- line_bytes;
    dst.mirror_tx_frame_rate <- frame_rate *. (line_bytes /. byte_rate)
  end

let recompute_mirrors_of_port t port =
  List.iter (fun m -> if m.src_port = port then recompute_mirror t m) t.mirrors

let attach_flow t ~port ~dir ~byte_rate ~frame_rate ~flow =
  check_port t port;
  if byte_rate < 0.0 || frame_rate < 0.0 then
    invalid_arg "Switch.attach_flow: negative rate";
  refresh t port;
  let p = t.ports.(port) in
  (match dir with
  | Tx ->
    p.tx_byte_rate <- p.tx_byte_rate +. byte_rate;
    p.tx_frame_rate <- p.tx_frame_rate +. frame_rate
  | Rx ->
    p.rx_byte_rate <- p.rx_byte_rate +. byte_rate;
    p.rx_frame_rate <- p.rx_frame_rate +. frame_rate);
  let att = { flow; port; dir; byte_rate; frame_rate } in
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.flows flow) in
  Hashtbl.replace t.flows flow (att :: existing);
  recompute_mirrors_of_port t port

let detach_flow t ~flow =
  match Hashtbl.find_opt t.flows flow with
  | None -> ()
  | Some atts ->
    Hashtbl.remove t.flows flow;
    List.iter
      (fun att ->
        refresh t att.port;
        let p = t.ports.(att.port) in
        (match att.dir with
        | Tx ->
          p.tx_byte_rate <- Float.max 0.0 (p.tx_byte_rate -. att.byte_rate);
          p.tx_frame_rate <- Float.max 0.0 (p.tx_frame_rate -. att.frame_rate)
        | Rx ->
          p.rx_byte_rate <- Float.max 0.0 (p.rx_byte_rate -. att.byte_rate);
          p.rx_frame_rate <- Float.max 0.0 (p.rx_frame_rate -. att.frame_rate));
        recompute_mirrors_of_port t att.port)
      atts

let attachments t ~port =
  check_port t port;
  Hashtbl.fold
    (fun _ atts acc -> List.filter (fun a -> a.port = port) atts @ acc)
    t.flows []

let read_counters t ~port =
  check_port t port;
  refresh t port;
  let p = t.ports.(port) in
  {
    tx_bytes = p.tx_bytes_acc;
    rx_bytes = p.rx_bytes_acc;
    tx_frames = p.tx_frames_acc;
    rx_frames = p.rx_frames_acc;
  }

let find_mirror t id =
  match List.find_opt (fun m -> m.mirror_id = id) t.mirrors with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Switch: no mirror session %d" id)

let add_mirror t ~src_port ~dirs ~dst_port =
  if src_port < 0 || src_port >= Array.length t.ports then
    Error (Printf.sprintf "source port %d out of range" src_port)
  else if dst_port < 0 || dst_port >= Array.length t.ports then
    Error (Printf.sprintf "destination port %d out of range" dst_port)
  else if src_port = dst_port then Error "source and destination ports coincide"
  else if List.exists (fun m -> m.src_port = src_port) t.mirrors then
    Error (Printf.sprintf "port %d is already mirrored" src_port)
  else if List.exists (fun m -> m.dst_port = dst_port) t.mirrors then
    Error (Printf.sprintf "port %d is already a mirror destination" dst_port)
  else begin
    let id = t.next_mirror_id in
    t.next_mirror_id <- id + 1;
    let m = { mirror_id = id; src_port; dirs; dst_port } in
    t.mirrors <- m :: t.mirrors;
    recompute_mirror t m;
    Ok id
  end

let remove_mirror t id =
  match List.find_opt (fun m -> m.mirror_id = id) t.mirrors with
  | None -> ()
  | Some m ->
    refresh t m.dst_port;
    t.mirrors <- List.filter (fun m' -> m'.mirror_id <> id) t.mirrors;
    let dst = t.ports.(m.dst_port) in
    dst.mirror_tx_byte_rate <- 0.0;
    dst.mirror_tx_frame_rate <- 0.0

let mirror_count t = List.length t.mirrors

let mirrored_rate t id =
  let m = find_mirror t id in
  fst (mirrored_channel_rates t m)

let mirror_drop_fraction t id =
  let m = find_mirror t id in
  let byte_rate, _ = mirrored_channel_rates t m in
  let line_bytes = t.line_rate /. 8.0 in
  if byte_rate <= line_bytes then 0.0 else 1.0 -. (line_bytes /. byte_rate)

let mirrored_attachments t id =
  let m = find_mirror t id in
  let wanted (d : dir) =
    match m.dirs with Rx_only -> d = Rx | Tx_only -> d = Tx | Both -> true
  in
  List.filter (fun a -> wanted a.dir) (attachments t ~port:m.src_port)
