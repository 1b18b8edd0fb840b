(** Tasks of the data-transfer problem (problem DT, Section 3 of the paper).

    A task must transfer its input data (communication time [comm]) over the
    single link before computing (time [comp]) on the processing unit. It
    occupies [mem] bytes of the target memory from the start of its
    communication to the end of its computation.

    Tasks may additionally carry {e tile annotations}: named shared tiles
    (Global-Arrays blocks) whose transfer time and memory footprint are
    {e portions} of [comm] and [mem]. The plain executors ignore them —
    [comm]/[mem] always remain the full all-miss values, so a task with
    annotations behaves exactly like today's model under every existing
    code path. Residency-aware executors ({!Sim.schedule_task_cached},
    {!Cached_rules}) use the annotations to skip the transfer of tiles
    already resident in the unit's memory. *)

type tile_ref = {
  tile : int;     (** globally unique tile name (array base + tile index) *)
  t_comm : float; (** this tile's share of the task's transfer time, >= 0 *)
  t_mem : float;  (** this tile's share of the task's memory, >= 0 *)
}

type t = private {
  id : int;          (** unique within an instance; also the submission rank *)
  label : string;    (** human-readable name, e.g. ["contract t2(3,7)"] *)
  comm : float;      (** communication (input transfer) time, >= 0 — the
                         full all-miss value, tile shares included *)
  comp : float;      (** computation time, >= 0 *)
  mem : float;       (** memory requirement, >= 0 — the full all-miss value *)
  tiles : tile_ref list;
                     (** shared input tiles; [sum t_comm <= comm],
                         [sum t_mem <= mem] *)
}

val make :
  ?label:string ->
  ?mem:float ->
  ?tiles:tile_ref list ->
  id:int ->
  comm:float ->
  comp:float ->
  unit ->
  t
(** [make ~id ~comm ~comp ()] builds a task. [mem] defaults to [comm],
    the paper's simplifying convention (memory proportional to
    communication time, Section 3). Raises [Invalid_argument] on negative,
    NaN or non-finite durations/memory, on malformed tile refs (negative
    or duplicate ids, negative/non-finite shares), and when the tile
    shares exceed the task totals. *)

val filler : t
(** A placeholder task (id [-1], all zero) made once, at start-up, to
    seed task arrays: OCaml 5's [Array.make] runs a minor collection when
    it seeds an array above 256 words with a block still in the minor
    heap, as a freshly made task is. *)

val with_id : t -> int -> t
(** Same task under a different id (used when renumbering batches). *)

val flatten : t -> t
(** The task with its tile annotations dropped: the no-sharing view.
    Numerically identical — [comm]/[mem] are unchanged. *)

val has_tiles : t -> bool

val charged : t -> comm:float -> t
(** The task as actually charged by a residency-aware executor: [comm]
    replaced by the effective (post-hit) transfer time, annotations
    dropped. Used to record cache-aware schedule entries. *)

val is_compute_intensive : t -> bool
(** [comp >= comm], the paper's definition. *)

val acceleration : t -> float
(** Ratio [comp /. comm]; [infinity] when [comm = 0.]. Used by the
    MAMR/OOMAMR selection criteria. *)

val equal : t -> t -> bool
val compare_id : t -> t -> int
val pp : Format.formatter -> t -> unit
