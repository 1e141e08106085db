(** The Digest step: raw captures to abstract captures.

    Applies the protocol dissectors to every frame of a pcap and keeps
    only the abstract header stack plus timing/size metadata — the most
    expensive step of the paper's offline pipeline ("most of this time
    is taken up by Wireshark's protocol dissectors"). *)

val pcap_to_acaps : ?pool:Parallel.Pool.t -> bytes -> Dissect.Acap.record list
(** Dissect every packet of an in-memory capture (classic pcap or
    pcapng, detected from the magic number) through the indexed,
    zero-copy decode: record headers are walked once to build an
    offset/length index, then index ranges are dissected in parallel as
    {!Packet.Slice} views of the shared buffer — packet payloads are
    never copied.  Record order (and content) is identical to the
    sequential, copying run at any pool size. *)

val pcap_file_to_acaps :
  ?pool:Parallel.Pool.t -> string -> Dissect.Acap.record list

val sample_acaps : Patchwork.Capture.sample -> Dissect.Acap.record list
(** The abstract records of a sample: digested from its pcap bytes when
    it carries them, else the records the capture already abstracted
    in-line.  The pcap holds the in-line records' frames in their order,
    and at a truncation that keeps each header stack its digest reads
    back every record in each field but the stamp: storage keeps a frame
    snapped to the truncation length with its timestamp rounded to the
    microsecond, so [ts], [cap_len] and [truncated] differ, and with
    them a profile's flow first and last times. *)
