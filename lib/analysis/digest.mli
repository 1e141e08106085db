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

val pcap_to_flows : ?pool:Parallel.Pool.t -> bytes -> Flows.summary list
(** Single-pass digest→flows fast path over the zero-alloc overlay
    cursor ({!Dissect.Overlay}): each index range classifies frames by
    reading header fields in place through {!Packet.Slice} and streams
    key/ts/bytes/RST straight into a per-range {!Flows.Shard} — no
    header records, no intermediate acaps, live memory O(flows).
    Bit-identical to [Flows.aggregate (pcap_to_acaps buf)] at any pool
    size. *)

val pcap_file_to_acaps :
  ?pool:Parallel.Pool.t -> string -> Dissect.Acap.record list

val pcap_file_to_flows : ?pool:Parallel.Pool.t -> string -> Flows.summary list

val sample_acaps :
  ?pool:Parallel.Pool.t -> Patchwork.Capture.sample -> Dissect.Acap.record list
(** The abstract records of a sample: digested from its pcap bytes when
    it carries them, else the records the capture already abstracted
    in-line.  The two are different measurements, not a fast and a slow
    route to one answer: the pcap bytes hold each frame as storage kept
    it — snapped to the capture's truncation length, its timestamp
    rounded to the microsecond, its application layer re-derived from
    the snapped bytes — so a profile built from them differs from the
    in-line one (flow first/last times, and the shares of services such
    as dns and dns-tcp). *)

val write_acap_file : string -> Dissect.Acap.record list -> unit
(** One record per line ({!Dissect.Acap.to_line}). *)

val read_acap_file : string -> Dissect.Acap.record list
(** Reads in binary mode.  Raises [Failure] on malformed lines; the
    message names the file and the 1-based line number. *)
