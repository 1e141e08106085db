type outcome = (unit, exn) result

type t = {
  mutable domain : outcome Domain.t option; (* None: spawn failed or joined *)
  mutable result : outcome option;
  spawn_ok : bool;
}

let spawn f =
  match Domain.spawn (fun () -> try Ok (f ()) with e -> Error e) with
  | d -> { domain = Some d; result = None; spawn_ok = true }
  | exception e -> { domain = None; result = Some (Error e); spawn_ok = false }

let spawned t = t.spawn_ok

let join t =
  match t.result with
  | Some r -> r
  | None -> (
    match t.domain with
    | None -> Error (Failure "Background.join: no domain")
    | Some d ->
      let r = Domain.join d in
      t.domain <- None;
      t.result <- Some r;
      r)
