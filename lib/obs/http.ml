(* Naive substring search; request heads are tiny. *)
module Str_search = struct
  let find hay needle =
    let nh = String.length hay and nn = String.length needle in
    if nn = 0 then Some 0
    else begin
      let rec go i =
        if i + nn > nh then None
        else if String.sub hay i nn = needle then Some i
        else go (i + 1)
      in
      go 0
    end
end

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
}

type response = { status : int; content_type : string; body : string }

let response ?(status = 200) ?(content_type = "text/plain; charset=utf-8") body =
  { status; content_type; body }

let reason_phrase = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

(* --- request parsing (pure) --- *)

let percent_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then begin
      (match s.[i] with
      | '+' ->
        Buffer.add_char buf ' ';
        go (i + 1)
      | '%' when i + 2 < n -> (
        match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some code ->
          Buffer.add_char buf (Char.chr (code land 0xff));
          go (i + 3)
        | None ->
          Buffer.add_char buf '%';
          go (i + 1))
      | c ->
        Buffer.add_char buf c;
        go (i + 1))
    end
  in
  go 0;
  Buffer.contents buf

let parse_query target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some q ->
    let path = String.sub target 0 q in
    let qs = String.sub target (q + 1) (String.length target - q - 1) in
    let pairs =
      List.filter_map
        (fun kv ->
          if kv = "" then None
          else
            match String.index_opt kv '=' with
            | None -> Some (percent_decode kv, "")
            | Some e ->
              Some
                ( percent_decode (String.sub kv 0 e),
                  percent_decode
                    (String.sub kv (e + 1) (String.length kv - e - 1)) ))
        (String.split_on_char '&' qs)
    in
    (path, pairs)

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let parse_request raw =
  (* Only the head matters: everything through the first blank line. *)
  let head =
    match Str_search.find raw "\r\n\r\n" with
    | Some i -> String.sub raw 0 i
    | None -> (
      match Str_search.find raw "\n\n" with
      | Some i -> String.sub raw 0 i
      | None -> raw)
  in
  match List.map strip_cr (String.split_on_char '\n' head) with
  | [] | [ "" ] -> Error 400
  | request_line :: header_lines -> (
    match
      List.filter (fun t -> t <> "") (String.split_on_char ' ' request_line)
    with
    | [ meth; target; version ]
      when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
      let headers =
        List.filter_map
          (fun line ->
            match String.index_opt line ':' with
            | None -> None
            | Some c ->
              Some
                ( String.lowercase_ascii (String.trim (String.sub line 0 c)),
                  String.trim
                    (String.sub line (c + 1) (String.length line - c - 1)) ))
          header_lines
      in
      let path, query = parse_query target in
      if path = "" || path.[0] <> '/' then Error 400
      else Ok { meth = String.uppercase_ascii meth; path; query; headers }
    | _ -> Error 400)

(* --- typed query parameters --- *)

let query_param req key = List.assoc_opt key req.query

let float_param req key =
  match List.assoc_opt key req.query with
  | None -> Ok None
  | Some v -> (
    match float_of_string_opt v with
    | Some f when Float.is_finite f -> Ok (Some f)
    | _ -> Error (Printf.sprintf "malformed %s=%S (expected a finite number)" key v))

let int_param req key =
  match List.assoc_opt key req.query with
  | None -> Ok None
  | Some v -> (
    match int_of_string_opt v with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "malformed %s=%S (expected an integer)" key v))

let routes table req =
  if req.meth <> "GET" && req.meth <> "HEAD" then
    response ~status:405 "method not allowed\n"
  else
    match List.assoc_opt req.path table with
    | Some handler -> handler req
    | None -> response ~status:404 "not found\n"

(* --- server --- *)

type server = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  handler : request -> response;
  stop_rd : Unix.file_descr;
  stop_wr : Unix.file_descr;
  stopped : bool Atomic.t;
  finished : bool Atomic.t; (* run has returned; sockets closed *)
}

(* The longest request head served; a longer one is answered with 431. *)
let max_request_bytes = 8192

let create ~port handler =
  (* A scrape client that disconnects mid-response (curl Ctrl-C, RST)
     would otherwise deliver SIGPIPE on write, whose default action
     kills the whole process; with it ignored the write raises
     [Unix_error EPIPE], which the per-connection handler swallows. *)
  if Sys.os_type <> "Win32" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd 16
   with e ->
     Unix.close fd;
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stop_rd, stop_wr = Unix.pipe () in
  {
    listen_fd = fd;
    bound_port;
    handler;
    stop_rd;
    stop_wr;
    stopped = Atomic.make false;
    finished = Atomic.make false;
  }

let port t = t.bound_port

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then begin
      let w = Unix.write fd b off (n - off) in
      if w > 0 then go (off + w)
    end
  in
  go 0

let response_string ~head_only (r : response) =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
       close\r\n\r\n"
      r.status (reason_phrase r.status) r.content_type (String.length r.body)
  in
  if head_only then head else head ^ r.body

(* Read the request head from [fd]: up to max_request_bytes, bounded
   wall time, stopping at the first blank line. *)
let read_head fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    if Buffer.length buf > max_request_bytes then `Oversized
    else begin
      let complete s =
        Str_search.find s "\r\n\r\n" <> None || Str_search.find s "\n\n" <> None
      in
      if complete (Buffer.contents buf) then `Ok (Buffer.contents buf)
      else begin
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then `Timeout
        else begin
          match Unix.select [ fd ] [] [] remaining with
          | [], _, _ -> `Timeout
          | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> if Buffer.length buf = 0 then `Closed else `Ok (Buffer.contents buf)
            | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> go ())
        end
      end
    end
  in
  go ()

let handle_connection t fd =
  match read_head fd with
  | `Closed -> ()
  | `Timeout ->
    write_all fd (response_string ~head_only:false (response ~status:408 "timeout\n"))
  | `Oversized ->
    write_all fd
      (response_string ~head_only:false
         (response ~status:431 "request head too large\n"))
  | `Ok raw -> (
    match parse_request raw with
    | Error status ->
      write_all fd
        (response_string ~head_only:false (response ~status "bad request\n"))
    | Ok req ->
      let resp =
        try t.handler req
        with _ -> response ~status:500 "internal error\n"
      in
      write_all fd (response_string ~head_only:(req.meth = "HEAD") resp))

let run t =
  let rec loop () =
    if not (Atomic.get t.stopped) then begin
      match Unix.select [ t.listen_fd; t.stop_rd ] [] [] (-1.0) with
      | ready, _, _ when List.memq t.stop_rd ready -> ()
      | ready, _, _ when List.memq t.listen_fd ready ->
        (match Unix.accept t.listen_fd with
        | fd, _ ->
          (* Mirror read_head's deadline on the write side: a client
             that never reads must not wedge write_all (and with it
             every endpoint) once the body exceeds the socket buffer.
             A timed-out write raises [Unix_error EAGAIN], aborting
             just this connection. *)
          (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
           with Unix.Unix_error _ -> ());
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () -> try handle_connection t fd with _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      | _ -> loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.finished true;
      List.iter
        (fun fd -> try Unix.close fd with _ -> ())
        [ t.listen_fd; t.stop_rd; t.stop_wr ])
    loop

let stop t =
  if not (Atomic.exchange t.stopped true) then
    if not (Atomic.get t.finished) then
      try ignore (Unix.write t.stop_wr (Bytes.of_string "x") 0 1) with _ -> ()

(* --- one-shot client --- *)

let get ~port path =
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        write_all fd
          (Printf.sprintf
             "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
             path);
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        in
        drain ();
        Buffer.contents buf)
  with
  | raw -> (
    let body =
      match Str_search.find raw "\r\n\r\n" with
      | Some i -> String.sub raw (i + 4) (String.length raw - i - 4)
      | None -> ""
    in
    match String.split_on_char ' ' raw with
    | _ :: code :: _ -> (
      match int_of_string_opt code with
      | Some status -> Ok (status, body)
      | None -> Error "malformed status line")
    | _ -> Error "malformed response")
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
