(** A minimal HTTP/1.1 exposition server (and scrape client) on bare
    [Unix] — no external dependencies.

    Built for the weekly service's monitoring endpoints: GET/HEAD only,
    one request per connection ([Connection: close]), bounded request
    parsing (oversized request heads are answered with 431), and a
    self-pipe so {!stop} wakes the accept loop from any domain for a
    graceful shutdown.  {!run} is a blocking loop: callers put it on a
    background domain (see [Parallel.Background]) and keep serving
    while occasions run.

    Handlers execute on the server's domain, so anything they touch
    must be thread-safe — which {!Registry}, {!Series} and {!Alerts}
    are by construction. *)

type request = {
  meth : string;  (** uppercased, e.g. ["GET"] *)
  path : string;  (** target without the query string *)
  query : (string * string) list;  (** decoded [?k=v&...] pairs *)
  headers : (string * string) list;  (** keys lowercased *)
}

type response = { status : int; content_type : string; body : string }

val response : ?status:int -> ?content_type:string -> string -> response
(** Defaults: 200, [text/plain; charset=utf-8]. *)

val parse_request : string -> (request, int) result
(** Parse a request head (through the blank line; any body is ignored).
    [Error status] is the HTTP status to answer with (400). Pure — unit
    tested without sockets. *)

val query_param : request -> string -> string option
(** First value of the named query parameter, if present. *)

val float_param : request -> string -> (float option, string) result
(** [Ok None] when absent, [Ok (Some v)] when a finite number, and
    [Error why] on malformed input — which handlers answer with 400. *)

val int_param : request -> string -> (int option, string) result

val routes : (string * (request -> response)) list -> request -> response
(** Exact-path router: unknown paths get 404, methods other than
    GET/HEAD get 405.  (HEAD responses are truncated at write time, so
    route handlers never special-case it.) *)

type server

val create : port:int -> (request -> response) -> server
(** Bind [127.0.0.1:port] ([SO_REUSEADDR]; [port = 0] picks an
    ephemeral port) and listen with a backlog of 16.  A request head
    longer than 8192 bytes is answered with 431.
    Also ignores [SIGPIPE] process-wide (non-Windows) so a scrape
    client disconnecting mid-response surfaces as [EPIPE] on the
    connection instead of killing the service.  Raises
    [Unix.Unix_error] if the bind fails. *)

val port : server -> int
(** The actually-bound port (useful with [port = 0]). *)

val run : server -> unit
(** Serve until {!stop}; blocking.  Per-connection failures are
    swallowed (the client just sees a closed socket). *)

val stop : server -> unit
(** Request shutdown and wake the accept loop; idempotent and safe from
    any domain.  Once {!run} returns, every socket is closed. *)

val get : port:int -> string -> (int * string, string) result
(** One-shot [GET path] against [127.0.0.1:port], each socket read and
    write bounded at 5 s; returns (status, body).  The scrape client
    behind [report --live], [doctor --live] and the socket smoke
    tests. *)
