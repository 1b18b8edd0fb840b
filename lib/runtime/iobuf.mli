(** Chunked byte buffer for the zero-copy service I/O path.

    A FIFO of fixed-size [Bytes] chunks with independent read and write
    cursors. Appending fills the tail chunk (allocating the next one
    when full); consuming ([advance]) moves the read cursor and releases
    fully drained chunks — there is never a compaction or a
    whole-buffer copy, so keeping a partial frame buffered while a slow
    peer trickles the rest costs O(new bytes) per read event, not
    O(buffered bytes) (the quadratic-reassembly failure mode of a
    [Buffer.contents] per wakeup).

    The pending bytes can be viewed without consuming them
    ([peek_byte]/[peek_u32_be]/[index_char]) — enough for the binary
    frame decoder to find a frame boundary — and exposed as an iovec
    array ([iovecs]) for [writev] scatter-gather output.

    Not thread-safe: a buffer must be used from one domain at a time. *)

type t

val create : ?chunk_size:int -> unit -> t
(** Empty buffer. [chunk_size] (default 16384, minimum 16) is the size
    of every chunk it allocates; no chunk is allocated until the first
    write. One drained chunk is retained for reuse, so a connection
    that alternates small requests and responses allocates its steady
    state once. *)

val length : t -> int
(** Bytes appended but not yet consumed. *)

val is_empty : t -> bool

(** {2 Appending (write cursor)} *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit
val add_substring : t -> string -> int -> int -> unit
val add_subbytes : t -> Bytes.t -> int -> int -> unit

val add_u32_be : t -> int -> unit
(** Append a 32-bit big-endian unsigned integer (the binary frame
    header); only the low 32 bits of the argument are written. *)

(** {2 Peeking (no consumption)} *)

val peek_byte : t -> int -> char
(** [peek_byte t i] is the [i]-th pending byte ([0] = next to be
    consumed). Raises [Invalid_argument] when [i] is out of bounds. *)

val peek_u32_be : t -> int
(** The first four pending bytes as a big-endian unsigned integer —
    the frame-length peek of the reassembly loop. Raises
    [Invalid_argument] when fewer than 4 bytes are pending. *)

val index_char : t -> from:int -> char -> int option
(** Offset (from the read cursor) of the first occurrence of the
    character at or after offset [from] — the text path's newline scan.
    The caller remembers how far it already scanned and passes it as
    [from], so repeated scans over an incomplete line stay linear.
    [from > length t] is allowed and returns [None]. *)

(** {2 Consuming (read cursor)} *)

val advance : t -> int -> unit
(** Consume [n] pending bytes; fully drained chunks are released.
    Raises [Invalid_argument] when [n] is negative or exceeds
    [length]. *)

val read_string : t -> int -> string
(** Copy out and consume the next [n] bytes — the single copy a
    completed frame payload or text line pays on its way to the
    decoder. Raises [Invalid_argument] when fewer than [n] bytes are
    pending. *)

val contents : t -> string
(** Copy of every pending byte, without consuming (tests/debugging). *)

val clear : t -> unit

(** {2 Bulk I/O} *)

val iovecs : ?max:int -> t -> (Bytes.t * int * int) array
(** The pending bytes as at most [max] (default 64) [(bytes, off, len)]
    slices, in order, each of positive length — ready for
    {!Net.writev}. The slices alias the buffer's own chunks: consume
    only via [advance], and do not append between building the iovecs
    and the write. *)

val fill_from : t -> Unix.file_descr -> int
(** Read once from [fd] directly into the tail chunk (reserving a fresh
    chunk when it is full) and append whatever arrived: the zero-copy
    ingest path. Returns the byte count ([0] = EOF) and re-raises the
    [Unix.Unix_error]s of [Unix.read] ([EAGAIN] included) — the caller
    owns the non-blocking protocol. *)
