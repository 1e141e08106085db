(* Each registered switch's SNMP series as per-port float columns.  All
   ports of a switch are polled at one instant, so each poll after the
   first adds one row of rates: row [i] was taken at [times.(i)], and
   port [p]'s tx and rx byte rates in it sit at [i * ports + p]. *)
type columns = {
  switch : Switch.t;
  ports : int;
  mutable rows : int;
  mutable times : float array;
  mutable tx_rate : float array;
  mutable rx_rate : float array;
  (* The last poll's time ([nan] before the first, which takes no rate)
     and each port's cumulative byte counters, allocated at the first
     poll, from which the next poll's rates are taken. *)
  mutable polled_at : float;
  mutable tx_bytes : float array;
  mutable rx_bytes : float array;
}

type t = {
  engine : Simcore.Engine.t;
  mutable switches : columns list;
  by_site : (string, columns) Hashtbl.t;
}

let create engine = { engine; switches = []; by_site = Hashtbl.create 32 }

let register_switch t sw =
  let site = Switch.site_name sw in
  if Hashtbl.mem t.by_site site then
    invalid_arg "Telemetry.register_switch: site already registered";
  let c =
    { switch = sw; ports = Switch.port_count sw; rows = 0; times = [||]; tx_rate = [||];
      rx_rate = [||]; polled_at = Float.nan; tx_bytes = [||]; rx_bytes = [||] }
  in
  Hashtbl.add t.by_site site c;
  t.switches <- c :: t.switches

(* An occasion's fabric takes two or three rows, so the first room is two. *)
let grow c =
  let rows = max 2 (2 * c.rows) in
  let extend a len =
    let b = Array.make len 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  c.times <- extend c.times rows;
  c.tx_rate <- extend c.tx_rate (rows * c.ports);
  c.rx_rate <- extend c.rx_rate (rows * c.ports)

let poll_switch now c =
  let ports = c.ports in
  if Float.is_nan c.polled_at then begin
    c.tx_bytes <- Array.make ports 0.0;
    c.rx_bytes <- Array.make ports 0.0
  end;
  (* A second poll at the same instant takes no rate either. *)
  let rated = now > c.polled_at in
  let dt = now -. c.polled_at in
  let row = c.rows * ports in
  if rated then begin
    if c.rows = Array.length c.times then grow c;
    c.times.(c.rows) <- now;
    c.rows <- c.rows + 1
  end;
  for port = 0 to ports - 1 do
    let k = Switch.read_counters c.switch ~port in
    if rated then begin
      c.tx_rate.(row + port) <-
        Float.max 0.0 ((k.Switch.tx_bytes -. c.tx_bytes.(port)) /. dt);
      c.rx_rate.(row + port) <-
        Float.max 0.0 ((k.Switch.rx_bytes -. c.rx_bytes.(port)) /. dt)
    end;
    c.tx_bytes.(port) <- k.Switch.tx_bytes;
    c.rx_bytes.(port) <- k.Switch.rx_bytes
  done;
  c.polled_at <- now

let poll_now t = List.iter (poll_switch (Simcore.Engine.now t.engine)) t.switches

let start ?until t =
  Simcore.Engine.every t.engine ~period:300.0 ?until (fun _ -> poll_now t)

(* The average tx rate plus the average rx rate over the rows taken in
   [at - window, at], both edges included.  Each average is the
   time-ordered sum from 0 divided by the row count; no row reads 0. *)
let port_avg_rate t ~site ~port ~window ~at =
  match Hashtbl.find_opt t.by_site site with
  | Some c when port >= 0 && port < c.ports ->
    let start = at -. window in
    let lo = ref 0 and hi = ref c.rows in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if c.times.(mid) < start then lo := mid + 1 else hi := mid
    done;
    let tx = ref 0.0 and rx = ref 0.0 and i = ref !lo in
    while !i < c.rows && c.times.(!i) <= at do
      tx := !tx +. c.tx_rate.((!i * c.ports) + port);
      rx := !rx +. c.rx_rate.((!i * c.ports) + port);
      incr i
    done;
    let n = float_of_int (!i - !lo) in
    if !i = !lo then 0.0 else (!tx /. n) +. (!rx /. n)
  | Some _ | None -> 0.0

(* The first candidate with the highest rate; an idle one never wins. *)
let busiest_port t ~site ~candidates ~window ~at =
  let rec best port rate = function
    | [] -> if rate > 0.0 then Some port else None
    | p :: rest ->
      let r = port_avg_rate t ~site ~port:p ~window ~at in
      if r > rate then best p r rest else best port rate rest
  in
  best (-1) 0.0 candidates
