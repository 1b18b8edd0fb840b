(** Incremental candidate index for the dynamic decision loops.

    The heuristics of Sections 4.2–4.3 repeatedly answer the same query:
    among the unscheduled tasks that fit in the free memory right now,
    which one does the active criterion pick once the minimum-idle filter
    has been applied? The original implementations re-scanned the whole
    remaining list at every decision, O(n²) per run. This index answers
    in O(log n) without reorganising itself as the memory level moves.

    {b Layout.} An immutable layout holds the tasks known at the last
    rebuild, sorted once by [(mem, id)], by [(comm, id)] and by
    (acceleration desc, id); each criterion's tie order is an int rank,
    and ids are found by binary search.

    {b State.} Per index, a live, dormant or dead byte per task and
    implicit segment trees over the two first orders, whose aggregates
    are int minima over the live tasks. The fits-now test
    [used +. mem <= kcap] is monotone in [mem], so the fitting tasks are
    a prefix of the [(mem, id)] order, found by binary search: the
    boundary is implicit, and a memory level that swings with every
    event costs nothing. The minimum-idle filter keeps the tasks whose
    idle time [max 0 (now + comm - cpu_free)] is within [1e-12] of the
    least; idle time is monotone in [comm], so they are a prefix of the
    [(comm, id)] order. SCMR and LCMR take O(log n) descents; MAMR a
    prefix minimum, or, when the filter {e binds} (excludes a fitting
    task), a pruned search of the eligible region. On the paper's
    workload it binds almost always: over the 150 HF traces (default
    seed, capacity 1.5 m_c) on 99.4% of 108,345 LCMR decisions and on
    95.9% of OOLCMR's [select] calls. Removing, reviving or arriving a
    task the layout holds writes its leaves and their root paths:
    O(log n), no allocation.

    {b Static order.} An index created with a static order (the
    corrected heuristics' Johnson order, or an explicit rank) also keeps
    the layout's tasks in that order, and a fourth min tree over its
    positions whose root is the first live task: {!static_head} reads it
    in O(1), and every removal, arrival and revival writes it with the
    other three. The order is sorted on the first rebuild that needs it
    and kept with the layout, so that the three corrected rules of a
    portfolio sort an instance once, by keys, with no comparator
    closure. An index without a static order sorts nothing more and
    keeps no fourth tree.

    {b Dormant tasks.} {!reserve} makes a task known but not selectable;
    {!add} later makes it live in O(log n). A loop that knows its future
    arrivals reserves them, so that an arrival costs no rebuild.

    {b Rebuilds.} A task the layout does not hold waits, pending, until
    the next {!select}, {!static_head} or {!remove} lays out the pending
    tasks and the live and dormant ones; {!find} and {!size} see it at
    once. A rebuild
    reuses the layout last built on the calling domain when it lays out
    physically the same task sequence, in O(n); otherwise it sorts, in
    O(n log n). So the six indexed rules of a portfolio
    ({!Auto.select}), like the six configurations of {!Cached_rules},
    sort an instance once. Only never-seen tasks need a rebuild: an
    offline run's tasks, which {!load} lays out at once, and a served
    session's [SUBMIT]s before its [DRAIN].

    {b Arrays.} {!release} hands the index's arrays to the next
    {!create} on the same domain, so that a sequence of runs allocates
    them once.

    Every comparison uses the exact float expressions of the original
    list scans and of {!Sim.fits_now}, and each criterion's (key, id)
    order is total, so selections are bit-identical to them
    (property-tested against a frozen copy, and against a task-list
    model over random add/reserve/remove/select interleavings). *)

type t

(** The selection criteria of Section 4.2, re-exported by
    {!Dynamic_rules}. *)
type criterion =
  | LCMR  (** largest communication time *)
  | SCMR  (** smallest communication time *)
  | MAMR  (** maximum acceleration, i.e. ratio computation/communication *)

(** A static order on the tasks, read by {!static_head}. *)
type order =
  | Johnson  (** Johnson's OMIM order, {!Johnson.compare} *)
  | Rank of (Task.t -> int)
      (** ascending rank, ties by smaller id; the function must be
          defined on every task the index is given. Two [Rank]s are the
          same order only if their functions are physically equal. *)

val create : ?static:order -> unit -> t
(** An empty index, on the arrays of the last index {!release}d on this
    domain if there is one. [static] (default: none) is the order
    {!static_head} follows. *)

val release : t -> unit
(** Hand the index's arrays to the next {!create} on this domain. The
    index must not be used afterwards. *)

val size : t -> int
(** Number of live tasks. *)

val find : t -> int -> Task.t option
(** The live or dormant task with this id, if any. *)

val add : t -> Task.t -> unit
(** Make a task live: a dormant or removed task the layout holds in
    O(log n), any other task pending until the next rebuild. Raises
    [Invalid_argument "Candidates.add: duplicate task id <id>"] at once
    when a live task, or a dormant task other than this one, has its id. *)

val load : t -> Task.t list -> unit
(** Make every task of the list live in a new index: [List.iter (add t)],
    laid out at once (from the domain's memo when it holds physically
    this sequence) instead of waiting, pending, for the next rebuild.
    Raises [Invalid_argument "Candidates.add: duplicate task id <id>"],
    with the id of the list's first task whose id an earlier task has,
    as [List.iter (add t)] does; the index must then be dropped. *)

val reserve : t -> Task.t -> unit
(** Make a task dormant: known to the index, so that {!add} makes it
    live in O(log n), but never selected before. Raises
    [Invalid_argument "Candidates.reserve: duplicate task id <id>"] when a
    live or dormant task has its id. *)

val remove : t -> Task.t -> unit
(** Remove the live or dormant task with this task's id; O(log n),
    after a rebuild if that task is pending. Raises
    [Invalid_argument "Candidates.remove: unknown task id <id>"] when no
    task with its id is present. *)

val static_head : t -> Task.t option
(** The first live task under the index's static order; [None] without a
    static order or a live task. Rebuilds first if a task is pending;
    then O(1). *)

type bound = { mutable bound : float }
(** A cell {!select} writes its min-idle bound into. *)

val select :
  ?min_idle_filter:bool ->
  ?idle_floor:float ->
  ?bound:bound ->
  t ->
  criterion ->
  used:float ->
  kcap:float ->
  cpu_free:float ->
  now:float ->
  Task.t option
(** One decision of the dynamic heuristics. Among the live tasks that
    fit under [used +. mem <= kcap] (with [kcap] the tolerance-adjusted
    capacity [capacity *. (1. +. 1e-12)], precomputed by the caller so
    the test is the exact expression of {!Sim.fits_now}), keep those
    whose communication, started at [now], induces the least idle time
    [max 0 (now + comm - cpu_free)] on the processing unit (within
    [1e-12]; skipped when [min_idle_filter] is [false], default [true]),
    then apply the criterion, ties by smaller id. Rebuilds first if a
    task is pending; then O(log n), but for MAMR when the filter binds.
    [None] iff no live task fits.

    [idle_floor] (default [infinity], ignored with the filter off) is
    the least idle time of candidates held {e outside} the index, so
    that the filter runs over their union: the bound becomes
    [Float.min (idle lo) idle_floor +. 1e-12], with [lo] the fitting task
    of least [(comm, id)], and the result is also [None] when [lo] (hence
    every fitting task) lies outside it. {!Cached_rules} passes the
    floor of its warm tasks; without a floor the selection is the one
    above.

    [bound], with the filter on, receives the bound the filter applied:
    [Float.min (idle lo) idle_floor +. 1e-12], [lo] being the unfiltered
    SCMR winner, or [idle_floor +. 1e-12] when no task fits. It is the
    idle bound of the union, so a caller filtering the tasks it holds
    outside the index needs no second, unfiltered select to find [lo].
    Computed anyway, it costs a store; a caller that passes no cell pays
    nothing. With the filter off the cell is not written. *)
