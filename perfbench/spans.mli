(** Spans of the traced run. The benchmark's own code wraps each call
    into a layer of the program in a span: name, start, end, the
    enclosing span and the trace or session it belongs to. Spans stay in
    memory and are written out once, when the run ends. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span; [-1] at the root *)
  name : string;  (** the layer call, e.g. ["core.heuristic"] *)
  key : string;  (** the trace or session id, [""] when none *)
  start : float;  (** seconds, monotonic clock *)
  stop : float;
}

val now : unit -> float
(** The monotonic clock, in seconds (nanosecond resolution). *)

type t

val create : unit -> t

val record : t -> ?key:string -> string -> (unit -> 'a) -> 'a
(** [record t ~key name f] runs [f] inside a span named [name], whose
    parent is the innermost span still open. The span is closed when [f]
    returns or raises. *)

val spans : t -> span array
(** Every closed span, in closing order. *)

val self_times : span array -> float array
(** Per span, its duration minus the part of its interval that its child
    spans cover (overlapping children are counted once, and children are
    clipped to the parent's interval). *)

type total = { count : int; total : float; self : float }

val totals : span array -> (string * total) list
(** Count, summed duration and summed self time per span name, sorted by
    name. *)

val write_chrome : string -> stamp:(string * string) list -> span array -> unit
(** Write the spans as Chrome trace-event JSON (opens in Perfetto), with
    [stamp] as ["otherData"]. Times are relative to the earliest span. *)
