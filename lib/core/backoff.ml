module Allocator = Testbed.Allocator

type outcome =
  | Acquired of { slice : Allocator.slice; instances : int; degraded : bool }
  | No_resources
  | Backend_failed of string

let instance_vm =
  {
    Allocator.cores = 2;
    ram_gb = 8;
    storage_gb = 100;
    dedicated_nics = 1;
    use_fpga = false;
  }

(* Back-end errors retried per acquisition before giving up. *)
let backend_retries = 2

let acquire allocator ~log ~time ~site ~desired_instances =
  if desired_instances < 1 then invalid_arg "Backoff.acquire: desired_instances";
  let component = site ^ "/setup" in
  let rec attempt instances retries_left =
    if instances < 1 then begin
      Logging.log log ~time ~level:Logging.Warning ~component
        "back-off exhausted: no instance could be placed";
      No_resources
    end
    else begin
      let request =
        { Allocator.site; vms = List.init instances (fun _ -> instance_vm) }
      in
      (* Allocation simulation (§8.3): skip requests the testbed's
         current inventory cannot possibly satisfy, instead of burning a
         round-trip on the real allocator per back-off step. *)
      if not (Allocator.can_satisfy allocator request) then begin
        Logging.log log ~time ~level:Logging.Debug ~component
          (Printf.sprintf
             "allocation simulation: %d instances infeasible; backing off"
             instances);
        attempt (instances - 1) retries_left
      end
      else
        match Allocator.create_slice allocator request with
      | Ok slice ->
        let degraded = instances < desired_instances in
        if degraded then
          Logging.log log ~time ~level:Logging.Warning ~component
            (Printf.sprintf "acquired %d/%d instances after back-off" instances
               desired_instances)
        else
          Logging.log log ~time ~level:Logging.Info ~component
            (Printf.sprintf "acquired %d instances" instances);
        Acquired { slice; instances; degraded }
      | Error (Allocator.Insufficient_resources what) ->
        Logging.log log ~time ~level:Logging.Info ~component
          (Printf.sprintf "insufficient %s for %d instances; backing off" what
             instances);
        attempt (instances - 1) retries_left
      | Error (Allocator.Backend_error msg) ->
        if retries_left > 0 then begin
          Logging.log log ~time ~level:Logging.Warning ~component
            (Printf.sprintf "backend error (%s); retrying" msg);
          attempt instances (retries_left - 1)
        end
        else begin
          Logging.log log ~time ~level:Logging.Error ~component
            (Printf.sprintf "backend error (%s); giving up" msg);
          Backend_failed msg
        end
    end
  in
  attempt desired_instances backend_retries
