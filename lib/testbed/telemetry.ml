type t = {
  engine : Simcore.Engine.t;
  store : Simcore.Timeseries.t;
  mutable switches : Switch.t list;
  (* Last polled cumulative byte counters per (site, port), used to turn
     counters into per-interval rates. *)
  last_poll : (string * int, float * float * float) Hashtbl.t;
}

let poll_period = 300.0

let create engine =
  { engine; store = Simcore.Timeseries.create (); switches = []; last_poll = Hashtbl.create 256 }

let register_switch t sw = t.switches <- sw :: t.switches

let key site port metric = Printf.sprintf "%s/p%d/%s" site port metric

let poll_switch t sw =
  let now = Simcore.Engine.now t.engine in
  let site = Switch.site_name sw in
  for port = 0 to Switch.port_count sw - 1 do
    let c = Switch.read_counters sw ~port in
    Simcore.Timeseries.append t.store ~key:(key site port "tx_bytes") ~time:now c.Switch.tx_bytes;
    Simcore.Timeseries.append t.store ~key:(key site port "rx_bytes") ~time:now c.Switch.rx_bytes;
    Simcore.Timeseries.append t.store ~key:(key site port "drops") ~time:now c.Switch.drops;
    (match Hashtbl.find_opt t.last_poll (site, port) with
    | Some (prev_time, prev_tx, prev_rx) when now > prev_time ->
      let dt = now -. prev_time in
      Simcore.Timeseries.append t.store ~key:(key site port "tx_rate") ~time:now
        (Float.max 0.0 ((c.Switch.tx_bytes -. prev_tx) /. dt));
      Simcore.Timeseries.append t.store ~key:(key site port "rx_rate") ~time:now
        (Float.max 0.0 ((c.Switch.rx_bytes -. prev_rx) /. dt))
    | Some _ | None -> ());
    Hashtbl.replace t.last_poll (site, port) (now, c.Switch.tx_bytes, c.Switch.rx_bytes)
  done

let poll_now t = List.iter (poll_switch t) t.switches

let start ?until t =
  Simcore.Engine.every t.engine ~period:poll_period ?until (fun _ -> poll_now t)

let store t = t.store

let avg_samples samples =
  match samples with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0 samples
    /. float_of_int (List.length samples)

let port_avg_rate t ~site ~port ~window ~at =
  let read metric =
    Simcore.Timeseries.range t.store ~key:(key site port metric)
      ~start_time:(at -. window) ~end_time:at
  in
  avg_samples (read "tx_rate") +. avg_samples (read "rx_rate")

let busiest_port t ~site ~candidates ~window ~at =
  let rated =
    List.map (fun p -> (p, port_avg_rate t ~site ~port:p ~window ~at)) candidates
  in
  match List.filter (fun (_, r) -> r > 0.0) rated with
  | [] -> None
  | active ->
    let best =
      List.fold_left (fun (bp, br) (p, r) -> if r > br then (p, r) else (bp, br))
        (List.hd active) (List.tl active)
    in
    Some (fst best)

(* Bridge to the run-metrics registry: re-export the most recent SNMP
   sample of every registered switch port as labelled gauges, so the
   testbed's telemetry and Patchwork's own pipeline metrics surface
   through one exposition endpoint. *)
let export_metrics ?(registry = Obs.Registry.default) t =
  if Obs.Registry.enabled () then
    List.iter
      (fun sw ->
        let site = Switch.site_name sw in
        for port = 0 to Switch.port_count sw - 1 do
          let labels = [ ("site", site); ("port", string_of_int port) ] in
          let set name metric =
            match Simcore.Timeseries.last t.store ~key:(key site port metric) with
            | None -> ()
            | Some (_, v) ->
              Obs.Registry.set
                (Obs.Registry.gauge registry name
                   ~help:("Latest SNMP " ^ metric ^ " sample") ~labels)
                v
          in
          set "testbed_port_tx_rate_bytes" "tx_rate";
          set "testbed_port_rx_rate_bytes" "rx_rate";
          set "testbed_port_tx_bytes" "tx_bytes";
          set "testbed_port_rx_bytes" "rx_bytes";
          set "testbed_port_drops" "drops"
        done)
      t.switches
