(** Client side of the [dtsched] service: a line-oriented connection with
    response framing, plus the load generator that replays an HF/CCSD
    trace against a server at a configurable arrival rate. *)

type connection

val connect : ?host:string -> port:int -> unit -> connection
(** TCP connection to a running server. [host] (default ["127.0.0.1"])
    may be a dotted quad or a name such as ["localhost"] (resolved via
    {!Net.resolve}). Raises [Unix.Unix_error] on refusal or resolution
    failure. SIGPIPE is ignored process-wide on the first connect, so a
    server going away mid-conversation surfaces as [Sys_error] /
    [Unix.Unix_error EPIPE] from the next send, never as process
    death. *)

val close : connection -> unit

val request : connection -> Protocol.request -> string list
(** Send one request and read the complete (possibly multi-line)
    response: the first [OK]/[ERR] line plus, for [POLL] ([new=<k>]) and
    [ENTRIES] ([n=<k>]), the [k] announced [ENTRY] lines. Raises
    [Failure] when the server closes the stream mid-response.

    An [Init] carrying [binary = true] negotiates the binary framing of
    {!Protocol}: it travels as a text line, its response and all later
    traffic on this connection travel as frames — {!request},
    {!request_line} and {!request_pipelined} switch over transparently
    (in binary mode one response frame is one request's complete
    response, so no announced-count parsing is involved). *)

val request_line : connection -> string -> string list
(** Like {!request} but for a raw request line (interactive mode: the
    line is sent verbatim, framing inferred from the response). On a
    binary connection the line is re-encoded as a frame — a line that
    does not parse is answered with a local [ERR parse ...] without
    touching the wire. A text line that negotiates binary
    ([INIT ... binary]) switches the connection exactly as the server
    does. *)

val request_pipelined : connection -> Protocol.request list -> string list list
(** Send a window of requests before reading any response; returns one
    response per request, in order. On a binary connection the whole
    window travels as a single frame (the server runs it as one engine
    pass); on a text connection the lines are written back to back and
    the responses read sequentially. Must not contain a
    binary-negotiating [Init] — use {!request} for the mode switch. *)

val response_field : string -> string -> float option
(** [response_field key line] extracts [<key>=<float>] from a response
    payload, e.g. [response_field "makespan" "OK makespan=42 scheduled=9"]. *)

type gc_stats = {
  minor_words : float;     (** minor-heap words allocated during the replay *)
  major_words : float;     (** words allocated in (or promoted to) the major heap *)
  minor_collections : int;
  major_collections : int;
}
(** Client-process GC deltas over one replay ([Gc.quick_stat] sampled
    before and after; [minor_words] from [Gc.minor_words], because
    [Gc.quick_stat]'s [minor_words] only advances at a minor collection
    on OCaml 5.1): what driving the load costs the *client* in
    allocation — the server-side budget travels in STATS
    ([minor_words_per_req]) instead. *)

type replay = {
  makespan : float;        (** online makespan reported by DRAIN *)
  offline_makespan : float;(** clairvoyant offline run of the same policy *)
  submitted : int;
  accepted : int;
  rejected : int;          (** busy/toobig refusals (counted, not retried) *)
  wall_s : float;          (** wall-clock time of the whole replay *)
  requests_per_s : float;
  p50_latency_s : float;   (** per-request round-trip latency percentiles *)
  p99_latency_s : float;
  p999_latency_s : float;  (** tail that survives averaging: p99.9 *)
  gc : gc_stats;
}

val replay :
  connection ->
  trace:Dt_trace.Trace.t ->
  rate:float ->
  ?policy:Engine.policy ->
  ?capacity_factor:float ->
  ?binary:bool ->
  ?pipeline:int ->
  unit ->
  replay
(** Replay [trace] against the server: [INIT] a session at
    [capacity_factor] (default [1.5]) times the trace's [m_c], then
    [SUBMIT] task [i] with arrival time [i / rate] (virtual time;
    [rate = infinity] degenerates to the clairvoyant all-at-zero case),
    then [DRAIN]. The offline reference runs the same policy in-process
    with every arrival at [0.]. [binary] (default [false]) negotiates
    the binary framing at [INIT]; [pipeline] (default [1], must be
    positive) keeps that many [SUBMIT]s in flight per window — in
    binary mode a window is a single frame, so the server runs it as
    one engine pass. Latency percentiles are over window round trips
    (each request charged its window's round trip). Raises [Failure]
    when the server answers [ERR] to INIT or DRAIN. *)
