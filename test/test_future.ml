(* The future-work feature: runtime autoscaling. *)

module Autoscaler = Patchwork.Autoscaler
module Allocator = Testbed.Allocator
module Fablib = Testbed.Fablib
module Switch = Testbed.Switch

let setup seed =
  let engine = Simcore.Engine.create () in
  let fabric = Fablib.create ~seed engine in
  let driver = Traffic.Driver.create fabric ~seed in
  let site =
    (List.hd (Testbed.Info_model.profilable_sites (Fablib.model fabric)))
      .Testbed.Info_model.name
  in
  (engine, fabric, driver, site)

let fast_config =
  {
    Patchwork.Config.default with
    Patchwork.Config.samples_per_run = 2;
    max_frames_per_sample = 5;
    instance_crash_prob = 0.0;
  }

let make_scaler ?(policy = Autoscaler.default_policy) (engine, fabric, driver, site) =
  ignore engine;
  Autoscaler.create ~fabric ~resolver:(Traffic.Driver.resolver driver)
    ~config:fast_config ~log:(Patchwork.Logging.create ())
    ~rng:(Netcore.Rng.create 4) ~site ~policy

(* --- Autoscaler --- *)

let test_autoscaler_scales_up_when_free () =
  let ((engine, fabric, _, site) as ctx) = setup 61 in
  let available () = Allocator.available (Fablib.allocator fabric) ~site in
  let before = available () in
  let scaler =
    make_scaler ~policy:{ Autoscaler.default_policy with Autoscaler.check_interval = 300.0 } ctx
  in
  Autoscaler.start scaler ~until:7200.0;
  Simcore.Engine.run ~until:7200.0 engine;
  Alcotest.(check bool) "grew beyond the floor" true (Autoscaler.live_instances scaler > 1);
  Alcotest.(check bool) "scale-up events recorded" true
    (List.exists
       (function Autoscaler.Scaled_up _ -> true | _ -> false)
       (Autoscaler.events scaler));
  Alcotest.(check bool) "bounded by ceiling" true
    (Autoscaler.live_instances scaler <= 4);
  Autoscaler.shutdown scaler;
  Alcotest.(check int) "all released" 0 (Autoscaler.live_instances scaler);
  Alcotest.(check bool) "slices returned" true (available () = before)

let test_autoscaler_nice_backs_off () =
  let ((engine, fabric, _, site) as ctx) = setup 62 in
  let scaler =
    make_scaler
      ~policy:
        { Autoscaler.default_policy with
          Autoscaler.check_interval = 300.0; min_instances = 1; max_instances = 3 }
      ctx
  in
  Autoscaler.start scaler ~until:14400.0;
  (* Let it grow first, then squeeze the site. *)
  Simcore.Engine.run ~until:3600.0 engine;
  let grown = Autoscaler.live_instances scaler in
  Simcore.Engine.schedule engine ~delay:1.0 (fun _ ->
      Allocator.set_external_utilization (Fablib.allocator fabric) ~site 1.0);
  Simcore.Engine.run ~until:14400.0 engine;
  Alcotest.(check bool) "had grown" true (grown >= 2);
  Alcotest.(check int) "niced back to the floor" 1 (Autoscaler.live_instances scaler);
  Alcotest.(check bool) "scale-down events recorded" true
    (List.exists
       (function Autoscaler.Scaled_down _ -> true | _ -> false)
       (Autoscaler.events scaler))

let test_autoscaler_keeps_retired_samples () =
  let ((engine, fabric, _, site) as ctx) = setup 63 in
  let scaler =
    make_scaler
      ~policy:{ Autoscaler.default_policy with Autoscaler.check_interval = 600.0 }
      ctx
  in
  Autoscaler.start scaler ~until:7200.0;
  Simcore.Engine.run ~until:3600.0 engine;
  Allocator.set_external_utilization (Fablib.allocator fabric) ~site 1.0;
  Simcore.Engine.run ~until:7200.0 engine;
  Alcotest.(check bool) "samples survive release" true
    (List.length (Autoscaler.samples scaler) > 0);
  Alcotest.(check bool) "slice-seconds accounted" true
    (Autoscaler.slice_seconds scaler > 0.0)

let suites =
  [
    ( "future.autoscaler",
      [
        Alcotest.test_case "scales up when free" `Slow test_autoscaler_scales_up_when_free;
        Alcotest.test_case "nice backs off" `Slow test_autoscaler_nice_backs_off;
        Alcotest.test_case "retired samples kept" `Slow test_autoscaler_keeps_retired_samples;
      ] );
  ]
