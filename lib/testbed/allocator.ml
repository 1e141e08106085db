type vm_request = {
  cores : int;
  ram_gb : int;
  storage_gb : int;
  dedicated_nics : int;
  use_fpga : bool;
}

type request = { site : string; vms : vm_request list }

type slice = {
  slice_id : int;
  slice_site : string;
  slice_vms : vm_request list;
  created_at : float;
}

type error = Insufficient_resources of string | Backend_error of string

type site_inventory = {
  base_dedicated_nics : int;
  base_fpgas : int;
  base_cores : int;
  base_ram_gb : int;
  base_storage_gb : int;
  mutable external_utilization : float;
  mutable used_dedicated_nics : int;
  mutable used_fpgas : int;
  mutable used_cores : int;
  mutable used_ram_gb : int;
  mutable used_storage_gb : int;
}

type availability = {
  avail_dedicated_nics : int;
  avail_fpgas : int;
  avail_cores : int;
  avail_ram_gb : int;
  avail_storage_gb : int;
}

type t = {
  engine : Simcore.Engine.t;
  inventories : (string, site_inventory) Hashtbl.t;
  mutable outages : (float * float) list;
  mutable next_slice_id : int;
}

let create engine (model : Info_model.t) =
  let inventories = Hashtbl.create 32 in
  Array.iter
    (fun (s : Info_model.site) ->
      let sum f = List.fold_left (fun acc w -> acc + f w) 0 s.Info_model.workers in
      Hashtbl.add inventories s.Info_model.name
        {
          base_dedicated_nics = Info_model.dedicated_nics s;
          base_fpgas = Info_model.fpga_count s;
          base_cores = sum (fun w -> w.Info_model.cores);
          base_ram_gb = sum (fun w -> w.Info_model.ram_gb);
          base_storage_gb = sum (fun w -> w.Info_model.storage_gb);
          external_utilization = 0.0;
          used_dedicated_nics = 0;
          used_fpgas = 0;
          used_cores = 0;
          used_ram_gb = 0;
          used_storage_gb = 0;
        })
    model.Info_model.sites;
  { engine; inventories; outages = []; next_slice_id = 0 }

let set_outages t outages = t.outages <- outages

let inventory t site =
  match Hashtbl.find_opt t.inventories site with
  | Some inv -> inv
  | None -> invalid_arg ("Allocator: unknown site " ^ site)

let set_external_utilization t ~site frac =
  if frac < 0.0 || frac > 1.0 then
    invalid_arg "Allocator.set_external_utilization: fraction out of [0,1]";
  (inventory t site).external_utilization <- frac

let available t ~site =
  let inv = inventory t site in
  let externally_taken base = int_of_float (Float.round (float_of_int base *. inv.external_utilization)) in
  let avail base used = max 0 (base - externally_taken base - used) in
  {
    avail_dedicated_nics = avail inv.base_dedicated_nics inv.used_dedicated_nics;
    avail_fpgas = avail inv.base_fpgas inv.used_fpgas;
    avail_cores = avail inv.base_cores inv.used_cores;
    avail_ram_gb = avail inv.base_ram_gb inv.used_ram_gb;
    avail_storage_gb = avail inv.base_storage_gb inv.used_storage_gb;
  }

let request_totals req =
  List.fold_left
    (fun (n, f, c, r, s) vm ->
      ( n + vm.dedicated_nics,
        (f + if vm.use_fpga then 1 else 0),
        c + vm.cores,
        r + vm.ram_gb,
        s + vm.storage_gb ))
    (0, 0, 0, 0, 0) req.vms

let can_satisfy t req =
  let a = available t ~site:req.site in
  let nics, fpgas, cores, ram, storage = request_totals req in
  nics <= a.avail_dedicated_nics
  && fpgas <= a.avail_fpgas
  && cores <= a.avail_cores
  && ram <= a.avail_ram_gb
  && storage <= a.avail_storage_gb

let in_outage t =
  let now = Simcore.Engine.now t.engine in
  List.exists (fun (a, b) -> now >= a && now <= b) t.outages

let create_slice t req =
  if in_outage t then Error (Backend_error "control framework unavailable")
  else begin
    let inv = inventory t req.site in
    let a = available t ~site:req.site in
    let nics, fpgas, cores, ram, storage = request_totals req in
    let insufficient what = Error (Insufficient_resources what) in
    if nics > a.avail_dedicated_nics then insufficient "dedicated NICs"
    else if fpgas > a.avail_fpgas then insufficient "FPGA cards"
    else if cores > a.avail_cores then insufficient "CPU cores"
    else if ram > a.avail_ram_gb then insufficient "RAM"
    else if storage > a.avail_storage_gb then insufficient "storage"
    else begin
      inv.used_dedicated_nics <- inv.used_dedicated_nics + nics;
      inv.used_fpgas <- inv.used_fpgas + fpgas;
      inv.used_cores <- inv.used_cores + cores;
      inv.used_ram_gb <- inv.used_ram_gb + ram;
      inv.used_storage_gb <- inv.used_storage_gb + storage;
      let id = t.next_slice_id in
      t.next_slice_id <- id + 1;
      Ok
        {
          slice_id = id;
          slice_site = req.site;
          slice_vms = req.vms;
          created_at = Simcore.Engine.now t.engine;
        }
    end
  end

let delete_slice t slice =
  let inv = inventory t slice.slice_site in
  let nics, fpgas, cores, ram, storage =
    request_totals { site = slice.slice_site; vms = slice.slice_vms }
  in
  inv.used_dedicated_nics <- max 0 (inv.used_dedicated_nics - nics);
  inv.used_fpgas <- max 0 (inv.used_fpgas - fpgas);
  inv.used_cores <- max 0 (inv.used_cores - cores);
  inv.used_ram_gb <- max 0 (inv.used_ram_gb - ram);
  inv.used_storage_gb <- max 0 (inv.used_storage_gb - storage)
