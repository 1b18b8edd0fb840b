(** Evict-aware variants of the dynamic selection rules (SCMR / LCMR /
    MAMR) on the tile residency model.

    Each decision is taken on the {e effective} communication time — the
    task's [comm] minus the shares of its currently-resident tiles — and
    the memory fit test allows on-demand eviction of unpinned tiles (see
    {!Sim.cached_unevictable}), min-idle filtered like
    {!Candidates.select}.

    A run reads its tasks' tile slots and shares from the residency
    set's ref table ({!Residency.refs}), which the executor state interns
    once, at start, and which the executor reads too; the loop interns
    nothing of its own. The unscheduled tasks with no resident input
    tile ("cold") sit in a {!Candidates} index, where their effective
    values are their
    static ones bit for bit; the others ("warm") sit in a slot array.
    Scheduling a task warms up the readers of its tiles (an array by tile
    slot); a warm task found with no resident input tile returns to the
    index. A decision costs one index select, O(log n), which also hands
    back the min-idle bound of the union ({!Candidates.select}'s
    [bound]), plus one pass over the warm tasks' input tiles, an array
    read of each tile's pin count ({!Residency.pins}) and no
    allocation, against a fit test and an effective comm (up to four
    table lookups per tile) for every remaining task in a full scan; it
    takes the same decision as that scan (QCheck-pinned against a frozen
    copy of it). On instances without tile annotations every run is
    bit-identical to the corresponding {!Dynamic_rules.run}
    (QCheck-pinned). *)

val name : Residency.policy -> Dynamic_rules.criterion -> string
(** E.g. ["SCMR+lru"], ["LCMR+min-refetch"]. *)

val run :
  ?policy:Residency.policy ->
  Dynamic_rules.criterion ->
  Instance.t ->
  Schedule.t * Residency.stats
(** The greedy decision loop under the residency model, from an empty
    cache. Returns the schedule (entries record effective transfer
    times, see {!Sim.schedule_task_cached}) and the final cache
    statistics. Raises [Invalid_argument] when a task alone exceeds the
    capacity, or when two references to one tile carve out different
    memory shares ({!Residency.touch}). The min-idle filter is always
    on, as in {!Dynamic_rules.run}'s default. *)
