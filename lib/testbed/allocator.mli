(** The testbed's slice allocator.

    Models the part of FABRIC's control framework that Patchwork
    interacts with: slice requests against finite per-site inventories,
    back-end outages, and resource pressure from other researchers'
    experiments. *)

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

type error =
  | Insufficient_resources of string
      (** the site cannot satisfy the request right now *)
  | Backend_error of string
      (** the control framework is in an outage; retrying later may work *)

type t

val create : Simcore.Engine.t -> Info_model.t -> t

val set_outages : t -> (float * float) list -> unit
(** Absolute time intervals during which every allocation fails with
    [Backend_error] (models the September back-end incidents of
    Fig. 10). *)

val set_external_utilization : t -> site:string -> float -> unit
(** Fraction of the site's dedicated NICs and storage currently consumed
    by other researchers' slices, in [0, 1]. *)

type availability = {
  avail_dedicated_nics : int;
  avail_fpgas : int;
  avail_cores : int;
  avail_ram_gb : int;
  avail_storage_gb : int;
}

val available : t -> site:string -> availability

val can_satisfy : t -> request -> bool
(** Pure feasibility check against current availability — Patchwork
    "carries out its own allocation simulations to ensure that resource
    requests can always be satisfied" (§8.3) before bothering the real
    allocator.  Ignores transient back-end state. *)

val create_slice : t -> request -> (slice, error) result
val delete_slice : t -> slice -> unit
