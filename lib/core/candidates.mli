(** Incremental candidate index for the dynamic decision loops.

    The heuristics of Sections 4.2–4.3 repeatedly answer the same query:
    among the unscheduled tasks that fit in the free memory right now,
    which one does the active criterion pick once the minimum-idle filter
    has been applied? The original implementations re-filtered and
    re-scanned the whole remaining list at every decision — O(n) per
    step, O(n²) per run. This index answers the query in O(log n)
    without ever reorganising itself as the memory level fluctuates:

    - the tasks are held in two balanced trees, keyed by [(comm, id)]
      and by [(mem, id)], whose nodes carry subtree aggregates: the
      argmin of [(comm, id)] (the SCMR winner), the argmax of comm with
      ties to the lower id (the LCMR winner), the argmax of
      (acceleration desc, id asc) (the MAMR winner), and the minimum
      memory requirement;
    - the fits-now test [used +. mem <= kcap] is monotone in [mem], so
      the fitting set is a {e prefix} of the [(mem, id)] tree: one
      descent accumulates the aggregates of exactly the fitting tasks.
      Because the boundary is implicit, a memory level that swings with
      every schedule/release event costs nothing — an earlier design
      that physically partitioned tasks into fits/blocked sets moved
      Θ(n) tasks per event on memory-saturated instances;
    - the minimum-idle filter keeps the tasks whose idle time
      [max 0 (now + comm - cpu_free)] is within [1e-12] of the minimum.
      Idle time is monotone in [comm], so the eligible set is a
      comm-prefix; it only {e binds} (excludes some fitting task) when
      the CPU frees up before the longest fitting transfer completes.
      When it does not bind, the prefix aggregates already answer every
      criterion; when it does, LCMR resolves with O(log² n) boundary
      descents of the [(comm, id)] tree and MAMR with a pruned search of
      the eligible region. On the paper's workload the filter binds
      almost always: over the 150 HF process traces (default seed,
      capacity 1.5 m_c) on 107,669 of 108,345 LCMR decisions (99.4%)
      and 107,517 of 108,345 MAMR decisions, and on 31,382 of the
      32,716 [select] calls of OOLCMR (95.9%);
    - the trees are mutated in place (no path copying), and [add] is
      deferred: the task is checked and recorded at once, so [find] and
      [size] see it, but it enters the trees when the next [select] or
      [remove] flushes the pending tasks. A flush rebuilds both trees
      perfectly balanced from the union sorted under each order when the
      pending tasks are at least as many as the indexed ones, and
      inserts them one by one otherwise, so an [add] costs O(log n)
      amortized. The offline rules, a served session's [SUBMIT]s before
      its [DRAIN], and {!Cached_rules}' initial load take the rebuild;
      online arrivals between decisions take the inserts. No operation
      copies a node: besides its result, a [select] allocates at most
      a dozen words, however large the index.

    Every comparison uses the exact float expressions of the original
    list scans and of {!Sim.fits_now}, so selections are bit-identical
    to them (property-tested against a frozen copy, and against a
    task-list model over random add/remove/select interleavings). *)

type t

(** The selection criteria of Section 4.2, re-exported by
    {!Dynamic_rules}. *)
type criterion =
  | LCMR  (** largest communication time *)
  | SCMR  (** smallest communication time *)
  | MAMR  (** maximum acceleration, i.e. ratio computation/communication *)

val create : unit -> t
(** An empty index. *)

val size : t -> int
(** Number of tasks in the index. *)

val find : t -> int -> Task.t option
(** The task with this id in the index, if any. *)

val add : t -> Task.t -> unit
(** Add a task, in O(log n) amortized: it is pending until the next
    [select] or [remove] (see the flush rule above). Raises
    [Invalid_argument "Candidates.add: duplicate task id <id>"] at once
    when a task with the same id is already present, pending or not. *)

val remove : t -> Task.t -> unit
(** Remove the task with this task's id, after flushing the pending
    tasks; O(log n) besides the flush. Raises
    [Invalid_argument "Candidates.remove: unknown task id <id>"] when no
    task with its id is present. *)

val select :
  ?min_idle_filter:bool ->
  ?idle_floor:float ->
  t ->
  criterion ->
  used:float ->
  kcap:float ->
  cpu_free:float ->
  now:float ->
  Task.t option
(** One decision of the dynamic heuristics. Among the tasks that fit
    under [used +. mem <= kcap] (with [kcap] the tolerance-adjusted
    capacity [capacity *. (1. +. 1e-12)], precomputed by the caller so
    the test is the exact expression of {!Sim.fits_now}), keep those
    whose communication, started at [now], induces the least idle time
    [max 0 (now + comm - cpu_free)] on the processing unit (within
    [1e-12]; skipped when [min_idle_filter] is [false], default [true]),
    then apply the criterion, ties by smaller id. Flushes the pending
    tasks first; then O(log n) when the minimum-idle filter does not
    bind (always, for SCMR and with the filter off). [None] iff no task
    fits.

    [idle_floor] (default [infinity], ignored with the filter off) is
    the least idle time of candidates held {e outside} the index, so
    that the filter runs over their union: the bound becomes
    [Float.min (idle lo) idle_floor +. 1e-12], with [lo] the fitting task
    of least [(comm, id)], and the result is also [None] when [lo] (hence
    every fitting task) lies outside it. {!Cached_rules} passes the
    floor of its warm tasks; without a floor the selection is the one
    above. *)
