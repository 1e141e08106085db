(** A NetFlow-style flow exporter.

    The paper argues (§4) that operator-oriented mechanisms — NetFlow,
    sFlow, IPFIX, SNMP — are inadequate for shared testbeds: their
    records aggregate on the classic 5-tuple and "do not distinguish
    between testbed users", so two slices reusing the same 10/8
    addresses collapse into one flow, and frame-level detail
    (encapsulation stacks, sizes) is lost entirely.  The authors set up
    NetFlow inside a FABRIC experiment to assess exactly this.

    This module reproduces that comparison point: it exports v5-style
    records for the traffic crossing a switch port.  The record has no
    VLAN/MPLS fields — that is the point. *)

type record = {
  nf_src : string;
  nf_dst : string;
  nf_proto : int;  (** 6 TCP, 17 UDP, 0 other *)
  nf_src_port : int;
  nf_dst_port : int;
  nf_packets : float;
  nf_bytes : float;
  nf_first : float;
  nf_last : float;
}

val key : record -> string
(** The classic 5-tuple key (no virtualization tags). *)

val export :
  resolver:(int -> Flow_model.spec option) ->
  Testbed.Switch.t ->
  port:int ->
  start_time:float ->
  end_time:float ->
  record list
(** Export one record per active 5-tuple on the port during the window,
    merging flows that NetFlow cannot distinguish.  Aggregate (subflow)
    specs export on their base tuple only — an exporter's flow table
    would see the distinct subflow tuples, but with this module's v5
    semantics they still merge whenever slices share addressing. *)

val distinct_flows : record list -> int
