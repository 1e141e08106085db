(* One hour of traffic synthesis on a seeded fabric, reduced to what the
   determinism property compares: the live spec table (full structural
   content, sorted by flow id) and the total switch Tx bytes, which also
   covers flows that already detached. *)

let run ~seed ~pool_size ~slab () =
  Parallel.Pool.with_pool ~size:pool_size @@ fun pool ->
  let engine = Simcore.Engine.create () in
  let fabric = Testbed.Fablib.create ~seed engine in
  let driver = Traffic.Driver.create ~pool ~slab fabric ~seed in
  Traffic.Driver.start driver ~until:3600.0;
  Simcore.Engine.run ~until:3600.0 engine;
  let specs = ref [] in
  let tx = ref 0.0 in
  let m = Testbed.Fablib.model fabric in
  Array.iter
    (fun (site : Testbed.Info_model.site) ->
      let name = site.Testbed.Info_model.name in
      let sw = Testbed.Fablib.switch fabric ~site:name in
      List.iter
        (fun port ->
          tx :=
            !tx
            +. (Testbed.Switch.read_counters sw ~port).Testbed.Switch.tx_bytes;
          List.iter
            (fun (a : Testbed.Switch.attachment) ->
              match Traffic.Driver.resolver driver a.Testbed.Switch.flow with
              | Some spec -> specs := spec :: !specs
              | None -> ())
            (Testbed.Switch.attachments sw ~port))
        (Testbed.Fablib.all_ports fabric ~site:name))
    m.Testbed.Info_model.sites;
  let specs =
    List.sort_uniq
      (fun (a : Traffic.Flow_model.spec) b ->
        compare a.Traffic.Flow_model.flow_id b.Traffic.Flow_model.flow_id)
      !specs
  in
  (specs, !tx)
