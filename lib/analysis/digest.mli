(** The Digest step: raw captures to abstract captures.

    Applies the protocol dissectors to every frame of a pcap and keeps
    only the abstract header stack plus timing/size metadata — the most
    expensive step of the paper's offline pipeline ("most of this time
    is taken up by Wireshark's protocol dissectors").

    One walk reads a capture.  {!fold_pcap} hands each frame's reused
    {!Dissect.Acap.Fields} straight to a consumer: the profile counts
    every pcap-carrying sample and [analyze]'s capture this way
    ({!Profile.of_pcap}), and builds no record.  {!pcap_to_acaps} is
    the same fold building one record per frame, for [dissect]'s rows,
    the benchmark's oracle and the tests. *)

val fold_pcap :
  bytes ->
  init:'a ->
  f:('a -> Dissect.Acap.Fields.t -> orig_len:int -> ts:float -> 'a) ->
  'a
(** Walk a capture's records (classic pcap or pcapng,
    {!Packet.Pcapng.fold_any}) and dissect each frame, where it lies in
    the buffer, into one {!Dissect.Acap.Fields.t}, handing it with the
    frame's original length and timestamp to [f].  Nothing is allocated
    per frame but what [f] allocates.  The
    fields are overwritten by the next frame: [f] reads what it keeps.
    The walk runs under the [digest.dissect] span, raises the readers'
    [Malformed] at the first bad record (the frames before it have been
    folded), and the decode counters are bumped once per capture. *)

val pcap_to_acaps : bytes -> Dissect.Acap.record list
(** The records of every frame of an in-memory capture (classic pcap or
    pcapng), in file order: {!fold_pcap} building
    {!Dissect.Acap.of_fields} of each frame, so packet payloads are
    never copied and the readers' [Malformed] propagates as the fold
    raises it. *)

val read_file : string -> bytes
(** A capture file's bytes, read whole, for {!fold_pcap} or
    {!pcap_to_acaps}. *)

val sample_acaps : Patchwork.Capture.sample -> Dissect.Acap.record list
(** The abstract records of a sample: digested from its pcap bytes when
    it carries them, else the records the capture already abstracted
    in-line.  The profile does not call it (it folds a pcap-carrying
    sample, {!fold_pcap}); the benchmark and the tests do.  The pcap
    holds the in-line records' frames in their order, and at a
    truncation that keeps each header stack its digest reads back every
    record in each field but the stamp: storage keeps a frame snapped to
    the truncation length with its timestamp rounded to the
    microsecond, so [ts], [cap_len] and [truncated] differ, and with
    them a profile's flow first and last times. *)
