(** The testbed information model.

    FABRIC publishes its topology through an information model (similar
    to Google's MALT); Patchwork's coordinator reads it to decide what
    can be profiled where.  This module generates a deterministic
    synthetic federation from a seed: around 30 sites with realistic
    inventories (a few uplinks, many downlinks, a handful of dedicated
    NICs, occasionally FPGA cards), matching the distributions the paper
    reports in Section 5. *)

type nic_kind = Shared_connectx | Dedicated_connectx | Alveo_fpga

type worker = {
  worker_name : string;
  cores : int;
  ram_gb : int;
  storage_gb : int;
  dedicated_nics : int;  (** dual-port ConnectX cards for exclusive use *)
  has_fpga : bool;
}

type site = {
  name : string;
  index : int;
  uplinks : int;  (** ports connected to other sites' switches *)
  downlinks : int;  (** ports connected to this site's servers *)
  workers : worker list;
  line_rate : float;  (** per-port capacity, bits per second *)
  teaching_only : bool;
      (** restricted for teaching (like EDUKY); no dedicated NICs, so
          Patchwork skips it *)
}

type t = { seed : int; sites : site array }

val generate : seed:int -> t
(** Deterministic synthetic federation of 30 sites. *)

val site : t -> string -> site
(** Lookup by name; raises [Not_found]. *)

val profilable_sites : t -> site list
(** Sites Patchwork can run on: not teaching-only and at least one
    dedicated NIC. *)

val total_ports : site -> int
(** Uplinks + downlinks. *)

val dedicated_nics : site -> int
(** Total dedicated NICs across the site's workers. *)

val fpga_count : site -> int
