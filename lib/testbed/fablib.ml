type t = {
  engine : Simcore.Engine.t;
  model : Info_model.t;
  switches : (string, Switch.t) Hashtbl.t;
  allocator : Allocator.t;
  telemetry : Telemetry.t;
  rng : Netcore.Rng.t;
}

let create ~seed engine =
  let model = Info_model.generate ~seed in
  let rng = Netcore.Rng.create (seed * 104729) in
  let telemetry = Telemetry.create engine in
  let switches = Hashtbl.create (Array.length model.Info_model.sites) in
  Array.iter
    (fun (s : Info_model.site) ->
      let sw =
        Switch.create engine ~site_name:s.Info_model.name
          ~ports:(Info_model.total_ports s) ~line_rate:s.Info_model.line_rate
      in
      Hashtbl.add switches s.Info_model.name sw;
      Telemetry.register_switch telemetry sw)
    model.Info_model.sites;
  (* This split once seeded the allocator's transient failures, which are
     gone; it stays so that every later draw from [rng] keeps its value. *)
  ignore (Netcore.Rng.split rng);
  let allocator = Allocator.create engine model in
  { engine; model; switches; allocator; telemetry; rng }

let engine t = t.engine
let model t = t.model
let allocator t = t.allocator
let telemetry t = t.telemetry
let rng t = t.rng

let switch t ~site =
  match Hashtbl.find_opt t.switches site with
  | Some sw -> sw
  | None -> raise Not_found

let uplink_ports t ~site =
  let s = Info_model.site t.model site in
  List.init s.Info_model.uplinks Fun.id

let downlink_ports t ~site =
  let s = Info_model.site t.model site in
  List.init s.Info_model.downlinks (fun i -> s.Info_model.uplinks + i)

let all_ports t ~site =
  let s = Info_model.site t.model site in
  List.init (Info_model.total_ports s) Fun.id

let start_telemetry ?until t = Telemetry.start ?until t.telemetry
