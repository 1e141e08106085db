module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let number_to_string v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num v ->
      if Float.is_nan v || Float.abs v = infinity then
        (* JSON has no literal for these; keep them readable. *)
        escape buf (if Float.is_nan v then "nan" else if v > 0.0 then "+inf" else "-inf")
      else Buffer.add_string buf (number_to_string v)
    | Str s -> escape buf s
    | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        l;
      Buffer.add_char buf ']'
    | Obj l ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          write buf x)
        l;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    write buf t;
    Buffer.contents buf

  (* --- parser --- *)

  exception Parse_error of string

  type state = { src : string; mutable pos : int }

  let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
  let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let advance st = st.pos <- st.pos + 1

  let rec skip_ws st =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
    | _ -> ()

  let expect st c =
    match peek st with
    | Some c' when c' = c -> advance st
    | _ -> fail st (Printf.sprintf "expected %C" c)

  let literal st word value =
    if
      st.pos + String.length word <= String.length st.src
      && String.sub st.src st.pos (String.length word) = word
    then begin
      st.pos <- st.pos + String.length word;
      value
    end
    else fail st (Printf.sprintf "expected %s" word)

  let parse_string st =
    expect st '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek st with
      | None -> fail st "unterminated string"
      | Some '"' -> advance st
      | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' -> Buffer.add_char buf '"'; advance st; go ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance st; go ()
        | Some '/' -> Buffer.add_char buf '/'; advance st; go ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance st; go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance st; go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance st; go ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance st; go ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance st; go ()
        | Some 'u' ->
          advance st;
          if st.pos + 4 > String.length st.src then fail st "bad \\u escape";
          let hex = String.sub st.src st.pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | None -> fail st "bad \\u escape"
          | Some code ->
            (* Only the byte range survives; enough for our own output. *)
            if code < 0x100 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
            st.pos <- st.pos + 4;
            go ())
        | _ -> fail st "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
    in
    go ();
    Buffer.contents buf

  let parse_number st =
    let start = st.pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      match peek st with Some c when is_num_char c -> true | _ -> false
    do
      advance st
    done;
    let s = String.sub st.src start (st.pos - start) in
    match float_of_string_opt s with
    | Some v -> v
    | None -> fail st "bad number"

  let rec parse_value st =
    skip_ws st;
    match peek st with
    | None -> fail st "unexpected end of input"
    | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
            advance st;
            members ((k, v) :: acc)
          | Some '}' ->
            advance st;
            List.rev ((k, v) :: acc)
          | _ -> fail st "expected , or }"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
            advance st;
            elements (v :: acc)
          | Some ']' ->
            advance st;
            List.rev (v :: acc)
          | _ -> fail st "expected , or ]"
        in
        Arr (elements [])
      end
    | Some '"' -> Str (parse_string st)
    | Some 't' -> literal st "true" (Bool true)
    | Some 'f' -> literal st "false" (Bool false)
    | Some 'n' -> literal st "null" Null
    | Some _ -> Num (parse_number st)

  let parse s =
    let st = { src = s; pos = 0 } in
    match parse_value st with
    | v ->
      skip_ws st;
      if st.pos <> String.length s then Error "trailing garbage"
      else Ok v
    | exception Parse_error msg -> Error msg

  let member key = function
    | Obj l -> List.assoc_opt key l
    | _ -> None

  let to_float = function
    | Num v -> Some v
    | Str "+inf" -> Some infinity
    | Str "-inf" -> Some neg_infinity
    | Str "nan" -> Some Float.nan
    | _ -> None

  let to_str = function Str s -> Some s | _ -> None
end

(* --- Prometheus text exposition --- *)

let float_repr v =
  if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let flatten samples =
  List.concat_map
    (fun (s : Registry.sample) ->
      match s.Registry.s_value with
      | Registry.Counter v | Registry.Gauge v ->
        [ (s.Registry.s_name, s.Registry.s_labels, v) ]
      | Registry.Histogram h ->
        List.map
          (fun (le, cum) ->
            ( s.Registry.s_name ^ "_bucket",
              s.Registry.s_labels @ [ ("le", float_repr le) ],
              float_of_int cum ))
          h.Registry.h_buckets
        @ [
            (s.Registry.s_name ^ "_sum", s.Registry.s_labels, h.Registry.h_sum);
            ( s.Registry.s_name ^ "_count",
              s.Registry.s_labels,
              float_of_int h.Registry.h_count );
          ])
    samples

let escape_label_value buf v =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v

let add_data_line buf (name, labels, v) =
  Buffer.add_string buf name;
  (match labels with
  | [] -> ()
  | labels ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, value) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        escape_label_value buf value;
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}');
  Buffer.add_char buf ' ';
  Buffer.add_string buf (float_repr v);
  Buffer.add_char buf '\n'

(* HELP text escaping per the exposition format: backslash first, then
   newlines (label values use the stricter escape_label_value). *)
let escape_help s =
  let s = String.concat "\\\\" (String.split_on_char '\\' s) in
  String.concat "\\n" (String.split_on_char '\n' s)

let to_prometheus samples =
  let buf = Buffer.create 1024 in
  let seen_family = Hashtbl.create 16 in
  List.iter
    (fun (s : Registry.sample) ->
      let name = s.Registry.s_name in
      if not (Hashtbl.mem seen_family name) then begin
        Hashtbl.add seen_family name ();
        if s.Registry.s_help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" name (escape_help s.Registry.s_help));
        let kind =
          match s.Registry.s_value with
          | Registry.Counter _ -> "counter"
          | Registry.Gauge _ -> "gauge"
          | Registry.Histogram _ -> "histogram"
        in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
      end;
      List.iter (add_data_line buf) (flatten [ s ]))
    samples;
  Buffer.contents buf

(* --- JSON snapshot --- *)

let json_of_labels labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let json_of_value = function
  | Registry.Counter v -> [ ("kind", Json.Str "counter"); ("value", Json.Num v) ]
  | Registry.Gauge v -> [ ("kind", Json.Str "gauge"); ("value", Json.Num v) ]
  | Registry.Histogram h ->
    [
      ("kind", Json.Str "histogram");
      ("count", Json.Num (float_of_int h.Registry.h_count));
      ("sum", Json.Num h.Registry.h_sum);
      ( "buckets",
        Json.Arr
          (List.map
             (fun (le, cum) ->
               Json.Obj
                 [ ("le", Json.Num le); ("count", Json.Num (float_of_int cum)) ])
             h.Registry.h_buckets) );
    ]

let rec json_of_span sp =
  Json.Obj
    ([
       ("name", Json.Str (Span.name sp));
       ("wall_s", Json.Num (Span.wall sp));
       ("minor_words", Json.Num (Span.minor_words sp));
     ]
    @ (match Span.notes sp with
      | [] -> []
      | notes ->
        [ ("notes", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) notes)) ])
    @
    match Span.children sp with
    | [] -> []
    | children -> [ ("children", Json.Arr (List.map json_of_span children)) ])

let json_of_snapshot ?(spans = []) samples =
  Json.Obj
    [
      ( "metrics",
        Json.Arr
          (List.map
             (fun (s : Registry.sample) ->
               Json.Obj
                 ([ ("name", Json.Str s.Registry.s_name) ]
                 @ (match s.Registry.s_labels with
                   | [] -> []
                   | labels -> [ ("labels", json_of_labels labels) ])
                 @ json_of_value s.Registry.s_value))
             samples) );
      ("spans", Json.Arr (List.map json_of_span spans));
    ]

let to_json_string ?spans samples = Json.to_string (json_of_snapshot ?spans samples)

(* --- Chrome trace_event export (chrome://tracing, Perfetto) --- *)

let to_trace_events ?(process_name = "patchwork") spans =
  let events = ref [] in
  (* reversed *)
  let add e = events := e :: !events in
  add
    (Json.Obj
       [
         ("name", Json.Str "process_name");
         ("ph", Json.Str "M");
         ("pid", Json.Num 1.0);
         ("tid", Json.Num 1.0);
         ("args", Json.Obj [ ("name", Json.Str process_name) ]);
       ]);
  (* One lane per domain: a span's tree never leaves its domain. *)
  let rec emit sp =
    let tid = Json.Num (float_of_int (Span.domain sp)) in
    let args =
      ("minor_words", Json.Num (Span.minor_words sp))
      :: List.map (fun (k, v) -> (k, Json.Str v)) (Span.notes sp)
    in
    add
      (Json.Obj
         [
           ("name", Json.Str (Span.name sp));
           ("cat", Json.Str "patchwork");
           ("ph", Json.Str "B");
           ("ts", Json.Num (Span.start_time sp *. 1e6));
           ("pid", Json.Num 1.0);
           ("tid", tid);
           ("args", Json.Obj args);
         ]);
    List.iter emit (Span.children sp);
    add
      (Json.Obj
         [
           ("name", Json.Str (Span.name sp));
           ("cat", Json.Str "patchwork");
           ("ph", Json.Str "E");
           ("ts", Json.Num ((Span.start_time sp +. Span.wall sp) *. 1e6));
           ("pid", Json.Num 1.0);
           ("tid", tid);
         ])
  in
  List.iter emit spans;
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.rev !events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let trace_events_string ?process_name spans =
  Json.to_string (to_trace_events ?process_name spans)
