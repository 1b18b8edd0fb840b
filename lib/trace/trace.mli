(** Task traces: the per-process task streams the paper collects from
    instrumented NWChem runs, with a plain-text file format so traces can
    be saved, inspected and re-analysed.

    Format: one header line [# dtsched-trace v1 <name>] (or [v2]), one
    comment line with the column names, then one tab-separated line per
    task: [id label comm comp mem] for v1, plus two columns
    [tiles writes] for v2. [tiles] is a comma-separated list of
    [tile:comm:mem] triples, or [-] when empty. [writes] is reserved
    and must be [-]: any other value is a parse error naming its line.
    Lines end with a line feed: a carriage return before it belongs to
    the last field, so a CRLF trace is a parse error. Other lines that
    start with [#], and empty lines, are skipped. An id is an integer
    as [int_of_string] reads it, and a number is any literal
    [float_of_string] accepts ({!Decimal} reads it). {!write} emits v1
    whenever no task carries tile annotations, so older readers keep
    working; {!parse} accepts both versions. Task ids must be unique
    within a trace (duplicates are a parse error: they would silently
    corrupt per-id result arrays downstream), and every numeric field
    must be finite. *)

type t = {
  name : string;          (** e.g. ["hf-p042"] *)
  tasks : Dt_core.Task.t list;
}

val make : name:string -> Dt_core.Task.t list -> t

val size : t -> int

val to_instance : t -> capacity:float -> Dt_core.Instance.t
(** Keeps task ids (they are the submission order within the trace). *)

val min_capacity : t -> float
(** [m_c] of the trace: the largest single memory requirement. *)

val write : out_channel -> t -> unit

type parse_error = {
  line : int;     (** 1-based line number in the stream *)
  message : string;
}

val parse_error_to_string : parse_error -> string
(** ["line <n>: <message>"]. *)

val parse : string -> (t, parse_error) result
(** Total parser over a trace's text: a truncated record, a non-numeric
    field, a negative duration/memory or a bad header all come back as a
    located [parse_error]; no [Failure] ever escapes a field conversion. *)

val save : dir:string -> t -> string
(** Writes [<dir>/<name>.trace] (creating [dir] if needed) and returns
    the path. *)

val load_result : string -> (t, parse_error) result
val load : string -> t
(** Raises [Failure] (with path and line) on a malformed file, and
    [Failure] with the path and the system's message on a path it cannot
    open or read (a directory, say), never [Sys_error]. *)

val save_set : dir:string -> prefix:string -> t array -> string list
val load_set : dir:string -> prefix:string -> t array
(** Loads every [<prefix>-p*.trace] in ascending process order, reading
    each into one buffer that serves them all. *)

val of_task_lists : prefix:string -> Dt_core.Task.t list array -> t array
(** Name each process's task list [<prefix>-p<idx>]. *)
