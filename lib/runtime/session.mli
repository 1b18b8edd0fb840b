(** Per-connection protocol session: a small state machine wrapping one
    {!Engine.t}, mapping request lines to response lines. It is pure with
    respect to I/O (strings in, strings out), so the TCP server, the
    stdio server, the in-process throughput bench and the tests all share
    the exact same behaviour. *)

type t

val create : ?info:(unit -> string) -> unit -> t
(** A fresh, uninitialised session: every request except [INIT], [STATS],
    [QUIT] and [SHUTDOWN] answers [ERR state] until [INIT] arrives.

    [info] (default: returns [""]) supplies host-side [key=value] fields
    that are appended, space-separated, to every [STATS] response — the
    TCP server reports its poller backend and minor words per request
    through it. An empty result appends nothing; an exception from
    [info] is treated as empty. *)

val engine : t -> Engine.t option
(** The engine created by [INIT], if any (exposed for tests/benches). *)

type control =
  | Continue            (** keep reading requests *)
  | Close_session       (** client said [QUIT]: close this connection *)
  | Stop_server         (** client said [SHUTDOWN]: close and stop serving *)

val handle_line : t -> string -> string list * control
(** Process one request line (trailing ['\n'] / ['\r'] tolerated) and
    return the response lines, in order, plus what to do next. Never
    raises: malformed input yields a single [ERR parse ...] line,
    [Invalid_argument] out of the engine yields [ERR state ...], and any
    other exception from engine/simulator code yields
    [ERR internal <exn>] — the session stays alive and usable in every
    case (a server must not die because one request hit a bug). *)

val handle_request : t -> Protocol.request -> string list * control
(** Same machine, entered with an already-decoded request — the path
    binary-framed connections take, since their requests never exist as
    text lines. Shares [handle_line]'s never-raises contract (and the
    {!fault_hook} injection point), differing only in skipping the
    parse step. *)

val emit_into : Iobuf.t -> binary:bool -> string list -> unit
(** Append one request's response lines to an output buffer in the
    given framing: text appends each line ['\n']-terminated, binary
    wraps the list in exactly one frame
    ({!Protocol.encode_response_frame_into}). The TCP server calls it
    after {!handle_line} or {!handle_request}, so response bytes are
    written once, into the connection's output chunks. *)

val fault_hook : (Protocol.request -> unit) ref
(** Test-only fault injection: called with every parsed request just
    before it is handled. A hook that raises models a bug in engine/sim
    code and must surface as [ERR internal ...] (the regression tests
    pin this). The default does nothing; production code must not touch
    it. *)
