open Netcore

type nic_kind = Shared_connectx | Dedicated_connectx | Alveo_fpga

type worker = {
  worker_name : string;
  cores : int;
  ram_gb : int;
  storage_gb : int;
  dedicated_nics : int;
  has_fpga : bool;
}

type site = {
  name : string;
  index : int;
  uplinks : int;
  downlinks : int;
  workers : worker list;
  line_rate : float;
  teaching_only : bool;
}

type t = { seed : int; sites : site array }

(* Site names evoke FABRIC's real deployment (universities, exchange
   points, international sites); the teaching-only EDUKY follows them. *)
let site_names =
  [|
    "STAR"; "WASH"; "DALL"; "SALT"; "UTAH"; "NCSA"; "MICH"; "MASS"; "TACC";
    "MAXG"; "GPNN"; "CLEM"; "GATC"; "UCSD"; "FIUN"; "UKYE"; "INDI"; "PSCC";
    "RUTG"; "SRIC"; "CERN"; "AMST"; "BRIS"; "TOKY"; "HAWI"; "LOSA"; "NEWY";
    "KANS"; "ATLA";
  |]

let make_worker rng site_name i ~with_fpga =
  {
    worker_name = Printf.sprintf "%s-w%d" site_name (i + 1);
    cores = Rng.choice rng [| 32; 64; 64; 128 |];
    ram_gb = Rng.choice rng [| 256; 384; 512 |];
    storage_gb = Rng.choice rng [| 2000; 4000; 8000 |];
    dedicated_nics = Rng.int_in rng 0 2;
    has_fpga = with_fpga;
  }

let make_site rng index name ~teaching_only =
  let worker_count = if teaching_only then 2 else Rng.int_in rng 3 6 in
  let fpga_worker = if teaching_only then -1 else Rng.int rng worker_count in
  let workers =
    List.init worker_count (fun i ->
        let w = make_worker rng name i ~with_fpga:(i = fpga_worker && Rng.bernoulli rng 0.6) in
        if teaching_only then { w with dedicated_nics = 0; has_fpga = false }
        else if i = 0 && w.dedicated_nics = 0 then { w with dedicated_nics = 1 }
        else w)
  in
  (* Downlinks: one port per shared NIC per worker plus the dedicated
     NIC ports (each dedicated NIC is dual-port). *)
  let dedicated_ports =
    2 * List.fold_left (fun acc w -> acc + w.dedicated_nics) 0 workers
  in
  let shared_ports = List.length workers * Rng.int_in rng 2 4 in
  let extra = Rng.int_in rng 2 10 in
  {
    name;
    index;
    uplinks = Rng.choice rng [| 1; 2; 2; 3; 3; 4 |];
    downlinks = dedicated_ports + shared_ports + extra;
    workers;
    line_rate = Rng.choice rng [| 100e9; 100e9; 100e9; 25e9 |];
    teaching_only;
  }

let generate ~seed =
  let rng = Rng.create (seed * 7919) in
  let n = Array.length site_names in
  let sites =
    Array.init (n + 1) (fun i ->
        (* The final site is the teaching-only one, mirroring EDUKY. *)
        let teaching_only = i = n in
        let name = if teaching_only then "EDUKY" else site_names.(i) in
        make_site rng i name ~teaching_only)
  in
  { seed; sites }

let site t name =
  match Array.find_opt (fun s -> s.name = name) t.sites with
  | Some s -> s
  | None -> raise Not_found

let dedicated_nics s =
  List.fold_left (fun acc w -> acc + w.dedicated_nics) 0 s.workers

let profilable_sites t =
  Array.to_list t.sites
  |> List.filter (fun s -> (not s.teaching_only) && dedicated_nics s > 0)

let total_ports s = s.uplinks + s.downlinks

let fpga_count s =
  List.fold_left (fun acc w -> acc + if w.has_fpga then 1 else 0) 0 s.workers
