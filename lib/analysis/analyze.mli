(** The Analyze step: unweighted statistics over one list of abstract
    captures — protocol occurrence (Fig. 12), frame-size distributions
    (Fig. 15 and §8.2), the jumbo and IPv6 shares and the distinct
    flows, as [analyze] and [dissect] print them for one capture.

    {!Profile.Builder} is the weighted implementation over an
    occasion's samples; it also derives per-site header diversity and
    deepest stacks (Fig. 11, {!site_headers}) and flows per sample
    (Fig. 13). *)

type site_headers = {
  hs_site : string;
  distinct_headers : int;  (** distinct protocol/service tokens seen *)
  deepest_stack : int;  (** maximum header-stack depth observed *)
  frames : int;
}

val occurrence : Dissect.Acap.record list -> (string * float) list
(** For each token, the percentage of frames whose stack contains it —
    counted with multiplicity, so nested Ethernet pushes "eth" above
    100% exactly as in Fig. 12.  Sorted descending, tied percentages
    by token. *)

val occurrence_of : (string * float) list -> string -> float
(** Lookup with 0 default. *)

val standard_size_edges : float array
(** The paper's frame-size bins: 64 / 128 / 256 / 512 / 1024 / 1519 /
    2048 / 9000 byte boundaries. *)

val frame_size_histogram : Dissect.Acap.record list -> Netcore.Histogram.t
(** Histogram of original wire lengths over {!standard_size_edges}. *)

val jumbo_fraction : Dissect.Acap.record list -> float
(** Fraction of frames longer than 1518 bytes. *)

val observed_flows : Dissect.Acap.record list -> int
(** Distinct flow keys actually present in a record set. *)

val ipv6_percent : Dissect.Acap.record list -> float
