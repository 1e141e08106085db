(** Iterative back-off during resource acquisition.

    Patchwork requests as many listening nodes as it would like (one VM
    + dedicated dual-port NIC per instance, 2 cores / 8 GB / 100 GB
    each); if the site cannot satisfy the request, it scales the request
    down by one VM and one NIC and retries, trading resources for sample
    quality (§6.2.1).  Transient back-end errors are retried a bounded
    number of times. *)

type outcome =
  | Acquired of { slice : Testbed.Allocator.slice; instances : int; degraded : bool }
      (** [degraded] when back-off reduced the request *)
  | No_resources  (** even a single instance could not be placed *)
  | Backend_failed of string  (** control framework kept erroring *)

val instance_vm : Testbed.Allocator.vm_request
(** The per-instance listening node: 2 cores, 8 GB RAM, 100 GB storage,
    1 dedicated dual-port NIC. *)

val acquire :
  Testbed.Allocator.t ->
  log:Logging.t ->
  time:float ->
  site:string ->
  desired_instances:int ->
  outcome
(** Try to create the site slice with [desired_instances] VMs, backing
    off one instance at a time.  A back-end error is retried twice at
    the same size before the acquisition fails. *)
