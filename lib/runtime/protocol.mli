(** Wire protocol of the [dtsched] scheduling service.

    Newline-delimited text, one request per line, fields separated by
    single spaces. Grammar (full reference, also reproduced in README):

    {v
request   = init | submit | poll | entries | stats | drain | quit
          | shutdown
init      = "INIT" SP capacity [SP policy [SP queue-limit]]
submit    = "SUBMIT" SP label SP comm SP comp SP mem [SP arrival]
poll      = "POLL"
entries   = "ENTRIES"
stats     = "STATS"
drain     = "DRAIN"
quit      = "QUIT"
shutdown  = "SHUTDOWN"
capacity  = positive float        policy = "LCMR" / "SCMR" / "MAMR" /
comm      = non-negative float             "OOLCMR" / "OOSCMR" / "OOMAMR"
comp      = non-negative float    queue-limit = positive integer
mem       = non-negative float    arrival     = non-negative float
label     = 1*(VCHAR without SP)
    v}

    Responses are a single [OK ...] or [ERR <code> <message>] line,
    except [ENTRIES] (head line [OK n=<k>]) and [POLL] (head line
    [OK new=<k> ...]), whose head is followed by [k] lines
    [ENTRY <id> <label> <s_comm> <s_comp>]. [DRAIN] schedules every
    pending task and answers [OK makespan=<m> scheduled=<n>] for the
    whole session so far, from the engine's running figures: its cost
    is the work it schedules, not the session's length, and a [DRAIN]
    with nothing pending repeats the previous answer. Error codes: [parse]
    (malformed request, or a request line longer than the server's
    bound — the latter also closes the connection), [state] (e.g.
    SUBMIT before INIT), [busy] (backpressure: either the pending queue
    is full, or — answered once on accept, followed by a close — the
    server is at its connection limit), [toobig] (task exceeds the
    session capacity), [timeout] (the connection sat idle longer than
    the server's idle timeout; followed by a close), [internal] (a
    request hit a bug in the engine; the session survives and stays
    usable). Requests before [INIT] other than [QUIT] / [SHUTDOWN] /
    [STATS] are [ERR state]. *)

type request =
  | Init of {
      capacity : float;
      policy : Engine.policy;
      queue_limit : int option;
      binary : bool;
          (** negotiate the length-prefixed binary framing: everything
              after this request — its own response included — travels
              as binary frames in both directions (see below) *)
    }
  | Submit of { label : string; comm : float; comp : float; mem : float; arrival : float }
  | Poll
  | Entries
  | Stats
  | Drain
  | Quit
  | Shutdown

val parse_request : string -> (request, string) result
(** Parse one request line (without the trailing newline). The error
    string is human-readable and becomes the payload of [ERR parse]. *)

val render_request : request -> string
(** Inverse of {!parse_request} (canonical spelling); used by clients. *)

val ok : string -> string
val err : code:string -> string -> string
(** Response-line constructors ([OK ...] / [ERR <code> ...]); newlines in
    the payload are replaced by spaces so one response is one line. *)

(** {2 Binary framing}

    Negotiated by the optional final [binary] token of a text [INIT]
    line ([INIT 10 OOSCMR binary]): a syntactically valid switching
    INIT flips the connection to binary immediately — its own response
    and all subsequent traffic, both directions, are length-prefixed
    frames. Old clients never send the token and keep the text
    protocol; mixed text and binary connections coexist on one server.

    One frame is a [u32] big-endian payload length followed by that
    many payload bytes, bounded by {!max_frame_bytes}. A request
    frame's payload concatenates encoded requests — many [SUBMIT]s in
    one frame are decoded together and run as one engine pass. A
    response frame's payload concatenates [u32]-length-prefixed
    response lines (the same lines the text protocol would send); each
    request is answered by exactly one frame, so a [POLL]/[ENTRIES]
    response needs no announced-count parsing.

    Per-request encodings (tag byte first, floats are IEEE-754 doubles
    big-endian):
    {v
'S' SUBMIT    u16 label-length, label, f64 comm, comp, mem, arrival
'I' INIT      f64 capacity, u8 policy-name length, policy name,
              u32 queue-limit (0 = none), u8 binary flag
'P' POLL  'E' ENTRIES  'T' STATS  'D' DRAIN  'Q' QUIT  'X' SHUTDOWN
    v}

    Value errors (negative comm, unknown policy, ...) are recoverable —
    every encoding has a self-delimiting size, so the offending request
    is answered [ERR parse] and decoding continues. Structural errors
    (unknown tag, truncated payload, oversized frame) close the
    connection: a binary stream cannot be resynchronised. *)

val max_frame_bytes : int
(** Maximum frame payload size (1 MiB); a declared length beyond it is
    a structural error. *)

val switches_to_binary : string -> bool
(** Whether a text request line is a syntactically valid [INIT] with
    the [binary] token — the framing layers on both sides switch on
    exactly this predicate. *)

type 'a frame =
  | Frame of 'a * int  (** payload and total bytes consumed *)
  | Need_more          (** incomplete: keep the bytes, read more *)
  | Frame_error of string  (** structural: close the connection *)

val frame_of_buf : Iobuf.t -> string frame
(** Pull one frame out of a chunked reassembly buffer: the length
    header is peeked in O(1), and the payload is copied out (and
    consumed, header included) only once complete — so reassembling a
    frame delivered over many reads costs O(frame) total work, where
    re-extracting from a flat string each wakeup would cost
    O(frame{^2}). [Need_more] leaves the buffer untouched; the
    reported [used] count equals [4 + payload length]. *)

val frame_into : Iobuf.t -> string -> unit
(** [frame] written straight into an output buffer (header + payload),
    with no intermediate frame string. *)

val encode_request_frame : request list -> string
(** One frame holding the given requests, header included. *)

val decode_requests : string -> ((request, string) result list, string) result
(** Decode a request frame's payload. Outer [Error] = structural
    (connection must close); inner [Error] = per-request value error
    (answer [ERR parse], keep going). *)

val encode_response_frame_into : Iobuf.t -> string list -> unit
(** One frame holding one request's response lines, header included
    (a 4-byte big-endian payload length, then each line as a 4-byte
    big-endian length and its bytes), appended directly to the
    connection's output buffer: the response bytes are written exactly
    once (each line into a chunk), with no intermediate payload or frame
    string — the server's binary-mode hot path. *)

val decode_responses : string -> (string list, string) result
(** Decode a response frame's payload back into response lines. *)
