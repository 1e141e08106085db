(* Reference implementations the library's fast paths are checked
   against, shared across test modules. *)

(* The copying decode: every packet is copied out of the capture buffer
   and dissected from the copy.  The sliced digest must reproduce it
   record for record, and the overlay digest must reproduce its
   [Flows.aggregate]. *)
let acaps_copying buf =
  List.map Dissect.Acap.of_packet (Packet.Pcapng.read_any buf)
