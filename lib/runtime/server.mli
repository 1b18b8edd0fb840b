(** The [dtsched serve] network service: a TCP (and stdin/stdout) server
    speaking the newline-delimited protocol of {!Protocol} — or its
    binary framing, per connection, once negotiated — one {!Session}
    per connection.

    Concurrency model: a single multiplexed, non-blocking event loop
    on one domain. Every live connection is registered with one
    {!Poller} (epoll on Linux, [Unix.select] elsewhere) with a
    per-connection read buffer (partial lines and partial binary frames
    are reassembled, so a client trickling one request byte by byte
    never stalls the others) and a per-connection write buffer (partial
    writes are resumed when the socket drains; write interest is only
    registered while output is pending). A poller wakeup touches only
    the connections with events — an idle population costs no per-
    wakeup work — and its timeout is derived from the nearest idle
    deadline rather than a fixed tick. The complete requests one read
    delivers are run as one batch on the loop, in arrival order — a
    binary frame of pipelined [SUBMIT]s becomes a single engine pass —
    and their responses are encoded straight into the connection's
    write buffer. Requests pipelined after a [QUIT] or [SHUTDOWN] are
    never answered. A request costs microseconds of engine work, so
    handing batches to other domains would cost more than it moves; a
    request that computes for long delays every connection. An idle or
    slow connection costs one fd and nothing else. [STATS] responses
    carry the poller backend and the loop's minor-heap words allocated
    per request so far.

    Out of fds ([EMFILE]/[ENFILE]), the loop stops polling the listener
    until a connection closes, instead of waking for the same pending
    connection at once, forever; backlogged connections are accepted
    then.

    Fault containment: SIGPIPE is ignored, so a peer that disconnects
    mid-response surfaces as a write error that closes that one
    connection; a request that raises inside the engine is answered
    [ERR internal ...] by the session (and, as a last resort, closes the
    offending connection) — the event loop survives both.

    Limits: at most [max_conns] connections are served at once — later
    ones are answered a single [ERR busy ...] line and closed — and,
    when [idle_timeout] is positive, a connection with no traffic for
    that long is answered [ERR timeout ...] and closed. Backpressure:
    a peer that stops reading sees the server stop reading from it once
    its pending output passes half of [max_output_bytes], and sees its
    connection dropped once the full bound is passed — a queue nothing
    drains is undeliverable, and must not grow without limit.

    Graceful shutdown: a [SHUTDOWN] request, SIGINT or SIGTERM stops the
    loop; the listener closes immediately, every queued response (the
    [SHUTDOWN] acknowledgement in particular) is flushed within a
    bounded drain window, then every remaining connection is closed —
    including idle ones, so open clients cannot hold the shutdown
    hostage. *)

type t

val create : ?host:string -> port:int -> unit -> t
(** Bind and listen on [host] : [port]; [port 0] picks a free port.
    [host] (default ["127.0.0.1"]) may be a dotted quad or a name such
    as ["localhost"] (resolved via {!Net.resolve}). Raises
    [Unix.Unix_error] when resolution, binding or listening fails — the
    socket is closed on every failure path. *)

val port : t -> int
(** The actually bound port (useful after [port 0]). *)

val select_conn_limit : int
(** The highest [max_conns] a select-backed run accepts:
    {!Poller.select_fd_limit} minus headroom for the server's own fds —
    every fd {e number} must stay under [FD_SETSIZE] for [Unix.select]
    to be usable at all. The epoll backend has no such ceiling. *)

val run :
  ?backend:Poller.kind ->
  ?max_conns:int ->
  ?max_output_bytes:int ->
  ?idle_timeout:float ->
  ?on_listen:(int -> unit) ->
  t ->
  unit
(** Serve until a [SHUTDOWN] request or a termination signal arrives,
    then drain and close (see the concurrency model above).
    [backend] (default [`Auto]: epoll when available) picks the
    readiness backend; [`Epoll] where unavailable is
    [Invalid_argument], as is a select-backed run whose [max_conns]
    exceeds {!select_conn_limit}. [max_conns] (default [512], must be
    positive) bounds simultaneous connections; [max_output_bytes]
    (default 4 MiB, must be positive) bounds one connection's pending
    output — reads pause at half the bound, the connection is dropped
    at the full bound; [idle_timeout] (seconds; default [0.] =
    disabled, must be non-negative) reaps silent connections.
    [on_listen] is called once with the bound port just before the
    first accept (the CLI prints/writes the port there, so scripts can
    synchronise). *)

val serve_stdio : unit -> unit
(** Serve exactly one session over stdin/stdout (requests in, responses
    out), returning on [QUIT], [SHUTDOWN], end of input, or the peer
    closing stdout (SIGPIPE is ignored; the broken pipe ends the loop
    cleanly). *)
