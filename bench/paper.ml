(* Shared helpers for the paper-reproduction benches. *)

let seed = 2024

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let row fmt = Printf.printf (fmt ^^ "\n%!")

let bar width fraction =
  let n = int_of_float (fraction *. float_of_int width) in
  String.make (max 0 (min width n)) '#'

(* A fresh federation + traffic for one occasion starting at an absolute
   time.  Each occasion is its own engine, as in the real system, where
   every run sets its slices up from scratch. *)
let fresh_occasion ?pool ~occasion_seed ~start_time () =
  let engine = Simcore.Engine.create ~start_time () in
  let fabric = Testbed.Fablib.create ~seed engine in
  let driver = Traffic.Driver.create ?pool fabric ~seed:occasion_seed in
  (engine, fabric, driver)

(* Resource pressure from other researchers at a given time: scales with
   seasonal activity plus site-day noise. *)
let apply_external_pressure fabric ~at ~occasion_seed =
  let model = Testbed.Fablib.model fabric in
  let allocator = Testbed.Fablib.allocator fabric in
  let act = Traffic.Workload.activity ~seed at in
  Array.iter
    (fun (site : Testbed.Info_model.site) ->
      let rng =
        Netcore.Rng.create
          ((occasion_seed * 97) + (site.Testbed.Info_model.index * 31) + 13)
      in
      let noise = Netcore.Rng.gaussian rng ~mu:0.0 ~sigma:0.28 in
      let u = 0.38 +. (0.12 *. act) +. Float.abs noise in
      Testbed.Allocator.set_external_utilization allocator
        ~site:site.Testbed.Info_model.name
        (Float.max 0.0 (Float.min 1.0 u)))
    model.Testbed.Info_model.sites

(* One all-experiment profiling occasion; returns the coordinator
   report.  [pool] runs its synthesis and gathering. *)
let run_profile_occasion ?(config = Patchwork.Config.default) ?(pressure = true)
    ?pool ~occasion_seed ~start_time ~duration () =
  let _, fabric, driver = fresh_occasion ?pool ~occasion_seed ~start_time () in
  if pressure then apply_external_pressure fabric ~at:start_time ~occasion_seed;
  Patchwork.Coordinator.run_occasion ~fabric ~driver ~config ?pool ~start_time
    ~duration ()
