(** A tcpdump-style capture filter language.

    Patchwork lets users restrict what is captured ("filtering to
    exclude unwanted traffic", requirement R5); this module provides the
    filter expressions that the capture evaluates per frame, for every
    capture method alike, before the FPGA offload samples.

    Grammar (a practical subset of BPF syntax):
    {v
      expr   := expr "or" expr | expr "and" expr | "not" expr
              | "(" expr ")" | prim
      prim   := "ip" | "ip6" | "tcp" | "udp" | "icmp" | "arp"
              | "vlan" [id] | "mpls" [label]
              | ["src"|"dst"] "host" ipv4-addr
              | ["src"|"dst"] "port" number
              | "less" number | "greater" number
              | protocol-token       (e.g. "tls", "ssh", "dns")
    v} *)

type dir = Any | Src | Dst

type t =
  | True
  | Not of t
  | And of t * t
  | Or of t * t
  | Proto of string  (** matches any header whose token equals the string *)
  | Vlan of int option
  | Mpls of int option
  | Host of dir * Netcore.Ipv4_addr.t
  | Port of dir * int
  | Less of int  (** wire length <= n *)
  | Greater of int  (** wire length >= n *)

val matches : wire_len:int -> t -> Frame.t -> bool
(** Evaluate a filter against a decoded frame whose wire length is
    [wire_len] ({!Frame.wire_length} of a frame that stands for
    itself).  [less] and [greater] compare [wire_len], which lets the
    capture decide one frame of a flow class for each draw of the
    class: no other primitive reads a field that varies within a
    class. *)

val parse : string -> (t, string) result
(** Parse filter syntax.  The empty string parses to {!True}. *)

val to_string : t -> string
(** Render back to parseable syntax. *)
