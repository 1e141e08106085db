(* Live exposition for the long-running weekly service: the HTTP
   endpoint set served while occasions run, the series/alert wiring
   behind it, and the scrape-side rendering used by `report --live`.

   The pieces compose across libraries: Obs.Http is the blocking server
   (obs depends only on unix), Parallel.Background provides the extra
   domain, and Patchwork.Coordinator's completion hook feeds the
   collector after every occasion. *)

module J = Obs.Export.Json
module Logging = Patchwork.Logging

let default_rules =
  [
    Obs.Alerts.rule ~series:"site_drop_rate" ~op:Obs.Alerts.Gt ~threshold:0.05
      ~for_count:3 ();
    Obs.Alerts.rule ~series:"pool_queue_wait_p99" ~op:Obs.Alerts.Gt
      ~threshold:0.5 ~for_count:2 ();
  ]

let json_response j =
  Obs.Http.response ~content_type:"application/json" (J.to_string j ^ "\n")

let logs_json log req =
  let seq =
    match List.assoc_opt "seq" req.Obs.Http.query with
    | Some s -> (
      match int_of_string_opt s with Some n when n >= 0 -> n | _ -> 0)
    | None -> 0
  in
  let entries = Logging.drain_since log ~seq in
  json_response
    (J.Obj
       [
         ("next_seq", J.Num (float_of_int (Logging.next_seq log)));
         ( "entries",
           J.Arr
             (List.map
                (fun (i, e) ->
                  J.Obj
                    [
                      ("seq", J.Num (float_of_int i));
                      ("time", J.Num e.Logging.time);
                      ("level", J.Str (Logging.level_name e.Logging.level));
                      ("component", J.Str e.Logging.component);
                      ("event", J.Str e.Logging.event);
                    ])
                entries) );
       ])

let routes ?tsdb ~log ~collector ~alerts () =
  let snapshot () = Obs.Registry.snapshot Obs.Registry.default in
  Obs.Http.routes
    [
      ( "/metrics",
        fun _ ->
          Obs.Http.response
            ~content_type:"text/plain; version=0.0.4; charset=utf-8"
            (Obs.Export.to_prometheus (snapshot ())) );
      ( "/metrics.json",
        fun _ ->
          Obs.Http.response ~content_type:"application/json"
            (Obs.Export.to_json_string
               ~spans:(Obs.Span.roots Obs.Span.default)
               (snapshot ())
            ^ "\n") );
      ("/series.json", Obs.Endpoints.series ?tsdb ~collector);
      ("/lossmap.json", fun req -> Obs.Endpoints.lossmap req);
      ("/alerts.json", fun _ -> json_response (Obs.Alerts.to_json alerts));
      ("/logs.json", logs_json log);
      ( "/trace.json",
        fun _ ->
          Obs.Http.response ~content_type:"application/json"
            (Obs.Export.trace_events_string ~process_name:"patchwork"
               (Obs.Span.roots Obs.Span.default)
            ^ "\n") );
      ("/healthz", fun _ -> Obs.Http.response "ok\n");
      ( "/readyz",
        fun _ ->
          if Patchwork.Coordinator.ready () then Obs.Http.response "ready\n"
          else Obs.Http.response ~status:503 "starting\n" );
    ]

type t = {
  server : Obs.Http.server;
  bg : Parallel.Background.t;
  collector : Obs.Series.Collector.t;
  alerts : Obs.Alerts.t;
  log : Logging.t;
  hook : Patchwork.Coordinator.hook_handle;
  tsdb : Obs.Tsdb.t option;
}

let start ?(rules = default_rules) ?baseline_at ?tsdb ~port ~log () =
  let collector = Obs.Series.Collector.create () in
  let alerts = Obs.Alerts.create rules in
  (* Re-arm from persisted history before anything fresh is collected:
     replaying the last for-count-many points per series reconstructs
     firing/consecutive state, so a killed service resumes alerting
     exactly where an uninterrupted one would be. *)
  (match tsdb with
  | Some store ->
    let deepest =
      List.fold_left (fun acc r -> max acc r.Obs.Alerts.for_count) 1 rules
    in
    let replayed =
      Obs.Alerts.rearm alerts (Obs.Tsdb.tail_store ~n:(deepest + 1) store)
    in
    List.iter
      (fun e ->
        Logging.log log ~time:e.Obs.Alerts.ev_at ~level:Logging.Info
          ~component:"alerts"
          ("re-armed: " ^ Obs.Alerts.event_to_string e))
      replayed
  | None -> ());
  (* Baseline before the first occasion so its deltas become the first
     points rather than vanishing into the baseline. *)
  (match baseline_at with
  | Some at -> Obs.Series.Collector.collect collector ~at Obs.Registry.default
  | None -> ());
  let hook =
    Patchwork.Coordinator.on_occasion_complete (fun report ->
      let at =
        report.Patchwork.Coordinator.occasion_start
        +. report.Patchwork.Coordinator.occasion_duration
      in
      let points =
        Obs.Series.Collector.collect_points collector ~at Obs.Registry.default
      in
      (* Persist every point collected this occasion; each flush seals
         one segment, so history survives a kill at any boundary. *)
      (match tsdb with
      | Some store ->
        List.iter
          (fun (name, labels, p) ->
            Obs.Tsdb.append_point store ~name ~labels ~at:p.Obs.Series.at
              p.Obs.Series.value)
          points;
        ignore (Obs.Tsdb.flush store)
      | None -> ());
      let events = Obs.Alerts.evaluate alerts ~at collector in
      List.iter
        (fun e ->
          Logging.log log ~time:at ~level:Logging.Warning ~component:"alerts"
            (Obs.Alerts.event_to_string e))
        events)
  in
  let server =
    Obs.Http.create ~port (routes ?tsdb ~log ~collector ~alerts ())
  in
  let bg =
    Parallel.Background.spawn (fun () ->
        Obs.Http.run server)
  in
  { server; bg; collector; alerts; log; hook; tsdb }

let port t = Obs.Http.port t.server
let active_alerts t = Obs.Alerts.active t.alerts

let stop t =
  (* Unhook first: occasions run after stop must not feed the dead
     collector, and repeated start/stop must not accumulate hooks. *)
  Patchwork.Coordinator.remove_hook t.hook;
  (* A graceful stop commits any buffered history.  A kill loses what
     was buffered since the last flush; a write it cut short left only a
     temporary, which the next open deletes. *)
  (match t.tsdb with Some store -> ignore (Obs.Tsdb.flush store) | None -> ());
  Obs.Http.stop t.server;
  match Parallel.Background.join t.bg with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "metrics server failed: %s\n%!" (Printexc.to_string e)

(* Block until SIGINT/SIGTERM, polling so the handler runs promptly. *)
let hold_until_signal () =
  let stop_requested = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler;
  while not (Atomic.get stop_requested) do
    Unix.sleepf 0.2
  done

(* --- the scrape side: `report --live PORT` --- *)

let series_of_json j =
  match J.member "series" j with
  | Some (J.Arr items) ->
    List.filter_map
      (fun item ->
        match Option.bind (J.member "name" item) J.to_str with
        | None -> None
        | Some name ->
          let labels =
            match J.member "labels" item with
            | Some (J.Obj kvs) ->
              List.filter_map
                (fun (k, v) ->
                  Option.map (fun v -> (k, v)) (J.to_str v))
                kvs
            | _ -> []
          in
          let points =
            match J.member "points" item with
            | Some (J.Arr ps) ->
              List.filter_map
                (fun p ->
                  match
                    ( Option.bind (J.member "at" p) J.to_float,
                      Option.bind (J.member "value" p) J.to_float )
                  with
                  | Some at, Some value -> Some (at, value)
                  | _ -> None)
                ps
            | _ -> []
          in
          Some (name, labels, points))
      items
  | _ -> []

let label_suffix = function
  | [] -> ""
  | ls ->
    "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) ^ "}"

let render_live ~port =
  (match Obs.Http.get ~port "/series.json" with
  | Error msg -> failwith (Printf.sprintf "scrape 127.0.0.1:%d failed: %s" port msg)
  | Ok (status, _) when status <> 200 ->
    failwith (Printf.sprintf "/series.json answered %d" status)
  | Ok (_, body) -> (
    match J.parse body with
    | Error msg -> failwith ("/series.json: " ^ msg)
    | Ok doc ->
      let all = series_of_json doc in
      if all = [] then print_endline "no series yet (waiting for the second occasion)"
      else begin
        print_endline "live series:";
        List.iter
          (fun (name, labels, points) ->
            (* Rebuild a window so the rendering is exactly the library's. *)
            let s = Obs.Series.create ~name ~labels () in
            List.iter (fun (at, v) -> Obs.Series.push s ~at v) points;
            let last =
              match Obs.Series.last s with
              | Some p -> Printf.sprintf "%g" p.Obs.Series.value
              | None -> "-"
            in
            Printf.printf "  %-42s %s %s\n"
              (name ^ label_suffix labels)
              (Obs.Series.sparkline ~width:32 s)
              last)
          all
      end));
  match Obs.Http.get ~port "/alerts.json" with
  | Error msg -> Printf.printf "alerts unavailable: %s\n" msg
  | Ok (_, body) -> (
    match J.parse body with
    | Error msg -> Printf.printf "alerts unparseable: %s\n" msg
    | Ok doc -> (
      match J.member "active" doc with
      | Some (J.Arr []) | None -> print_endline "alerts: none active"
      | Some (J.Arr actives) ->
        print_endline "alerts active:";
        List.iter
          (fun a ->
            let rule =
              Option.value ~default:"?"
                (Option.bind (J.member "rule" a) J.to_str)
            in
            let value =
              Option.value ~default:Float.nan
                (Option.bind (J.member "value" a) J.to_float)
            in
            let labels =
              match J.member "labels" a with
              | Some (J.Obj kvs) ->
                List.filter_map
                  (fun (k, v) -> Option.map (fun v -> (k, v)) (J.to_str v))
                  kvs
              | _ -> []
            in
            Printf.printf "  %s%s value=%g\n" rule (label_suffix labels) value)
          actives
      | Some _ -> ()))

(* --- the history side: `report --history DIR` --- *)

(* Render trends straight from a store directory, no service needed.
   Reads the committed segments as they are (a killed write's temporary
   is not listed), so this never mutates the store a live service may
   still own. *)
let render_history ?since ?until ?name ~dir () =
  let segments = Obs.Tsdb.segments_in_dir dir in
  if segments = [] then
    Printf.printf "no history segments under %s\n" dir
  else begin
    let pred = Obs.Tsdb.predicate ?since ?until ?name () in
    let groups = Obs.Tsdb.query ~pred segments in
    if groups = [] then print_endline "no series match"
    else begin
      Printf.printf "history (%d segment%s):\n" (List.length segments)
        (if List.length segments = 1 then "" else "s");
      List.iter
        (fun (sname, labels, records) ->
          let s = Obs.Series.create ~name:sname ~labels () in
          List.iter
            (fun r ->
              let at, v = Obs.Tsdb.point_of_record r in
              Obs.Series.push s ~at v)
            records;
          let last =
            match Obs.Series.last s with
            | Some p -> Printf.sprintf "%g" p.Obs.Series.value
            | None -> "-"
          in
          Printf.printf "  %-42s %s %s (%d points)\n"
            (sname ^ label_suffix labels)
            (Obs.Series.sparkline ~width:32 s)
            last (List.length records))
        groups
    end
  end
