open Netcore

type t = {
  policy : Config.port_selection;
  rng : Rng.t;
  site : string;
  candidates : int array;
  uplinks : int list;
  mutable cycle : int;
  mutable recent : int list;  (* newest first *)
}

let create policy ~rng ~site ~candidates ~uplinks =
  {
    policy;
    rng;
    site;
    candidates = Array.of_list candidates;
    uplinks;
    cycle = 0;
    recent = [];
  }

let remember t port =
  t.recent <- port :: t.recent;
  if List.length t.recent > 64 then
    t.recent <- List.filteri (fun i _ -> i < 64) t.recent

let non_idle t ~telemetry ~window ~at ports =
  List.filter
    (fun port ->
      Testbed.Telemetry.port_avg_rate telemetry ~site:t.site ~port ~window ~at > 0.0)
    ports

let pick_random t = function
  | [] -> None
  | ports -> Some (Rng.choice t.rng (Array.of_list ports))

let busiest t ~telemetry ~window ~at ~exclude ports =
  let eligible = List.filter (fun p -> not (List.mem p exclude)) ports in
  let pool = if eligible = [] then ports else eligible in
  Testbed.Telemetry.busiest_port telemetry ~site:t.site ~candidates:pool ~window ~at

let next t ~telemetry ~window ~at =
  let all = Array.to_list t.candidates in
  let chosen =
    match t.policy with
    | Config.Fixed_ports ports ->
      (* No cycling: round-robin within the fixed set so several runs
         still cover every requested port. *)
      let ports = List.filter (fun p -> List.mem p all) ports in
      (match ports with
      | [] -> None
      | ports -> Some (List.nth ports (t.cycle mod List.length ports)))
    | Config.Uplinks_only ->
      let ports = List.filter (fun p -> List.mem p all) t.uplinks in
      (match ports with
      | [] -> None
      | ports -> Some (List.nth ports (t.cycle mod List.length ports)))
    | Config.All_ports_round_robin ->
      if all = [] then None
      else Some (List.nth all (t.cycle mod List.length all))
    | Config.Busiest_bias n ->
      let active = non_idle t ~telemetry ~window ~at all in
      if t.cycle mod n = n - 1 then begin
        (* The busiest port not sampled during the last n cycles. *)
        let recently = List.filteri (fun i _ -> i < n) t.recent in
        match busiest t ~telemetry ~window ~at ~exclude:recently active with
        | Some p -> Some p
        | None -> pick_random t (if active = [] then all else active)
      end
      else pick_random t (if active = [] then all else active)
  in
  (match chosen with Some p -> remember t p | None -> ());
  t.cycle <- t.cycle + 1;
  chosen
