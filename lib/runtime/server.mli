(** The [dtsched serve] network service: a TCP (and stdin/stdout) server
    speaking the newline-delimited protocol of {!Protocol} — or its
    binary framing, per connection, once negotiated — one {!Session}
    per connection.

    Concurrency model: a single multiplexed, non-blocking event loop
    plus — when a {!Dt_par.Pool} is given — one engine shard per pool
    domain. Every live connection is registered with one {!Poller}
    (epoll on Linux, [Unix.select] elsewhere) with a per-connection
    read buffer (partial lines and partial binary frames are
    reassembled, so a client trickling one request byte by byte never
    stalls the others) and a per-connection write buffer (partial
    writes are resumed when the socket drains; write interest is only
    registered while output is pending). A poller wakeup touches only
    the connections with events — an idle population costs no per-
    wakeup work — and its timeout is derived from the nearest idle
    deadline rather than a fixed tick. Each accepted connection is
    pinned round-robin to a shard for its whole lifetime; its complete
    requests are handed to that shard as pinned batches (one in flight
    per connection, batches in arrival order — a binary frame of
    pipelined [SUBMIT]s becomes a single engine pass) and the loop
    moves on — a self-pipe wakes the poller the moment a batch
    finishes, so its responses are flushed immediately. Because a
    shard executes its pinned tasks one at a time, a session is only
    ever touched by its shard's worker, with no locking, and a slow
    request delays only the connections of its own shard — other
    shards, and the event loop, keep going (no cross-shard
    head-of-line blocking). An idle or slow connection costs one fd
    and nothing else: no domain is parked on it. [STATS] responses
    carry the poller backend and, with a pool, the connection's shard
    and the pool's job/fallback counters. Without a pool,
    batches are processed inline on the loop — the single-shard
    collapse; concurrency across connections still holds because no
    connection ever blocks the loop's reads.

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
  ?pool:Dt_par.Pool.t ->
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
    disabled, must be non-negative) reaps silent connections — a
    connection whose batch is in flight on its shard counts as active,
    not idle. [on_listen] is called once with the bound port just
    before the first accept (the CLI prints/writes the port there, so
    scripts can synchronise). With a [pool], connections are sharded
    across its domains as described above; the pool is borrowed, not
    owned — the caller shuts it down after [run] returns. Without a
    [pool], ready batches are processed sequentially on the loop. *)

val serve_stdio : unit -> unit
(** Serve exactly one session over stdin/stdout (requests in, responses
    out), returning on [QUIT], [SHUTDOWN], end of input, or the peer
    closing stdout (SIGPIPE is ignored; the broken pipe ends the loop
    cleanly). *)
