open Netcore

type dir = Any | Src | Dst

type t =
  | True
  | Not of t
  | And of t * t
  | Or of t * t
  | Proto of string
  | Vlan of int option
  | Mpls of int option
  | Host of dir * Ipv4_addr.t
  | Port of dir * int
  | Less of int
  | Greater of int

let dir_matches dir ~src ~dst ~wanted ~equal =
  match dir with
  | Any -> equal src wanted || equal dst wanted
  | Src -> equal src wanted
  | Dst -> equal dst wanted

let rec matches ~wire_len t (frame : Frame.t) =
  match t with
  | True -> true
  | Not inner -> not (matches ~wire_len inner frame)
  | And (a, b) -> matches ~wire_len a frame && matches ~wire_len b frame
  | Or (a, b) -> matches ~wire_len a frame || matches ~wire_len b frame
  | Proto token -> List.mem token (Frame.tokens frame)
  | Vlan None -> Frame.vlan_ids frame <> []
  | Vlan (Some vid) -> List.mem vid (Frame.vlan_ids frame)
  | Mpls None -> Frame.mpls_labels frame <> []
  | Mpls (Some label) -> List.mem label (Frame.mpls_labels frame)
  | Host (dir, addr) ->
    List.exists
      (function
        | Headers.Ipv4 { src; dst; _ } ->
          dir_matches dir ~src ~dst ~wanted:addr ~equal:Ipv4_addr.equal
        | _ -> false)
      frame.headers
  | Port (dir, port) ->
    List.exists
      (function
        | Headers.Tcp { src_port; dst_port; _ } | Headers.Udp { src_port; dst_port } ->
          dir_matches dir ~src:src_port ~dst:dst_port ~wanted:port ~equal:Int.equal
        | _ -> false)
      frame.headers
  | Less n -> wire_len <= n
  | Greater n -> wire_len >= n

(* --- Parsing --- *)

let tokenize s =
  let out = ref [] and buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' -> flush ()
      | '(' | ')' ->
        flush ();
        out := String.make 1 c :: !out
      | c -> Buffer.add_char buf c)
    s;
  flush ();
  List.rev !out

exception Parse_error of string

let known_protocols =
  [ "eth"; "pw"; "tls"; "ssh"; "http"; "dns"; "ntp"; "quic"; "vxlan"; "icmpv6" ]

(* Recursive-descent parser over a mutable token stream. *)
type stream = { mutable toks : string list }

let peek st = match st.toks with [] -> None | t :: _ -> Some t
let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok =
  match peek st with
  | Some t when t = tok -> advance st
  | Some t -> raise (Parse_error (Printf.sprintf "expected %s, found %s" tok t))
  | None -> raise (Parse_error (Printf.sprintf "expected %s, found end of input" tok))

let number st what =
  match peek st with
  | Some t -> (
    match int_of_string_opt t with
    | Some n ->
      advance st;
      n
    | None -> raise (Parse_error (Printf.sprintf "expected %s, found %s" what t)))
  | None -> raise (Parse_error (Printf.sprintf "expected %s, found end of input" what))

let optional_number st =
  match peek st with
  | Some t -> (
    match int_of_string_opt t with
    | Some n ->
      advance st;
      Some n
    | None -> None)
  | None -> None

let rec parse_or st =
  let left = parse_and st in
  match peek st with
  | Some "or" ->
    advance st;
    Or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_not st in
  match peek st with
  | Some "and" ->
    advance st;
    And (left, parse_and st)
  | _ -> left

and parse_not st =
  match peek st with
  | Some "not" ->
    advance st;
    Not (parse_not st)
  | _ -> parse_prim st

and parse_prim st =
  match peek st with
  | None -> raise (Parse_error "unexpected end of input")
  | Some "(" ->
    advance st;
    let e = parse_or st in
    expect st ")";
    e
  | Some "ip" ->
    advance st;
    Proto "ipv4"
  | Some "ip6" ->
    advance st;
    Proto "ipv6"
  | Some ("tcp" | "udp" | "icmp" | "arp") ->
    let t = Option.get (peek st) in
    advance st;
    Proto t
  | Some "vlan" ->
    advance st;
    Vlan (optional_number st)
  | Some "mpls" ->
    advance st;
    Mpls (optional_number st)
  | Some "host" ->
    advance st;
    Host (Any, parse_addr st)
  | Some "port" ->
    advance st;
    Port (Any, number st "port number")
  | Some (("src" | "dst") as d) ->
    advance st;
    let dir = if d = "src" then Src else Dst in
    (match peek st with
    | Some "host" ->
      advance st;
      Host (dir, parse_addr st)
    | Some "port" ->
      advance st;
      Port (dir, number st "port number")
    | Some t -> raise (Parse_error ("expected host or port after " ^ d ^ ", found " ^ t))
    | None -> raise (Parse_error ("expected host or port after " ^ d)))
  | Some "less" ->
    advance st;
    Less (number st "length")
  | Some "greater" ->
    advance st;
    Greater (number st "length")
  | Some tok when List.mem tok known_protocols ->
    advance st;
    Proto tok
  | Some tok -> raise (Parse_error ("unknown token " ^ tok))

and parse_addr st =
  match peek st with
  | Some t -> (
    advance st;
    try Ipv4_addr.of_string t
    with Invalid_argument _ -> raise (Parse_error ("bad IPv4 address " ^ t)))
  | None -> raise (Parse_error "expected IPv4 address")

let parse s =
  match tokenize s with
  | [] -> Ok True
  | toks -> (
    let st = { toks } in
    try
      let e = parse_or st in
      match st.toks with
      | [] -> Ok e
      | t :: _ -> Error ("trailing input at " ^ t)
    with Parse_error msg -> Error msg)

let rec to_string = function
  | True -> ""
  | Not e -> "not (" ^ to_string e ^ ")"
  | And (a, b) -> "(" ^ to_string a ^ " and " ^ to_string b ^ ")"
  | Or (a, b) -> "(" ^ to_string a ^ " or " ^ to_string b ^ ")"
  | Proto "ipv4" -> "ip"
  | Proto "ipv6" -> "ip6"
  | Proto p -> p
  | Vlan None -> "vlan"
  | Vlan (Some v) -> Printf.sprintf "vlan %d" v
  | Mpls None -> "mpls"
  | Mpls (Some l) -> Printf.sprintf "mpls %d" l
  | Host (Any, a) -> "host " ^ Ipv4_addr.to_string a
  | Host (Src, a) -> "src host " ^ Ipv4_addr.to_string a
  | Host (Dst, a) -> "dst host " ^ Ipv4_addr.to_string a
  | Port (Any, p) -> Printf.sprintf "port %d" p
  | Port (Src, p) -> Printf.sprintf "src port %d" p
  | Port (Dst, p) -> Printf.sprintf "dst port %d" p
  | Less n -> Printf.sprintf "less %d" n
  | Greater n -> Printf.sprintf "greater %d" n
