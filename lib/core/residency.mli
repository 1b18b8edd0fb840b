(** Tile residency: the processing unit's memory as a cache of named
    shared tiles (ROADMAP "data-aware memory model"; the paper's
    perspectives section flags data reuse as the next modelling step).

    A tile fetched by a task stays {e resident} after the task completes
    instead of being freed with the task's private memory. A later task
    referencing the same tile hits the cache: its transfer share costs
    nothing and its memory share is already charged. Tiles referenced by
    in-flight tasks are {e pinned} and cannot be evicted; unpinned tiles
    are evicted on demand by a pluggable policy when a new task needs the
    memory. Eviction costs nothing now — the price is the refetch if the
    tile is referenced again.

    {b Refs and slots.} A set serves one run: {!create} interns every
    tile reference of the run's tasks once, into the flat arrays of
    {!refs}. Tile ids are global names, an array's base plus a tile
    index, so they may be sparse and large; each distinct id gets a
    dense {e slot}, [0, 1, 2, ...] in the order the tasks' tiles first
    name it, and the id → slot table is dropped once [create] returns.
    A tile's state (pin count, last use, refetch cost, memory share)
    lives in flat arrays by slot, so every operation is an array access:
    {!touch} takes a ref, {!pins}, {!unpin} and {!evict} take a slot,
    and no function takes a tile id. The set's memory grows with the
    run's refs and distinct tiles, not with the tiles resident. *)

type policy =
  | Lru          (** evict the least recently used unpinned tile *)
  | Min_refetch  (** evict the unpinned tile cheapest to fetch again
                     (smallest communication share), ties by recency *)

val all_policies : policy list
val policy_name : policy -> string

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  hit_comm : float;  (** transfer time saved by cache hits *)
  miss_comm : float; (** transfer time paid on misses *)
}

type refs = {
  first : int array;
      (** by task index, length n + 1: task [u]'s input tiles are refs
          [first.(u)] to [first.(u + 1) - 1], in the order of its
          [tiles] list *)
  slot : int array;  (** by ref: the tile's slot *)
  comm : float array; (** by ref: the reference's transfer share [t_comm] *)
  mem : float array;  (** by ref: the reference's memory share [t_mem] *)
  tile : int array;   (** by slot: the tile id *)
}
(** A run's tile references, as flat arrays so that decision loops and
    executors read them with no lookup and no boxing. *)

type t

val create : ?policy:policy -> Task.t array -> t
(** An empty residency set (default policy {!Lru}) over the tile
    references of the given tasks, interned into {!refs}. O(refs). *)

val refs : t -> refs
(** The interned references; they never change. *)

val resident_bytes : t -> float
(** Memory currently held by resident tiles (pinned or not). *)

val pinned_bytes : t -> float
(** Memory held by tiles with at least one pin. *)

val stats : t -> stats

val pins : t -> int -> int
(** The pin count of the slot's tile when it is resident, [-1] when it
    is not: an array read. *)

val touch : t -> int -> [ `Hit | `Miss ]
(** Reference ref [j]'s tile at its task's communication start: a
    resident tile is a hit, an absent one is admitted (miss). Pins the
    tile either way; the caller must {!unpin} its slot at the task's
    computation end. On a miss the tile's memory is charged to
    {!resident_bytes}. Raises [Invalid_argument] naming the tile, and
    changes nothing, when the tile is resident with a memory share other
    than the reference's (transfer shares may differ). *)

val unpin : t -> int -> unit
(** Release one pin of the slot's tile. Raises [Invalid_argument] naming
    the tile if it is not resident or not pinned. *)

val victim : t -> int
(** The slot of the unpinned tile the policy would evict next, [-1] when
    every resident tile is pinned. Deterministic: ties break by recency
    and tile id, never by hash order or slot.

    O(log r) amortized over r resident tiles: the set keeps a min-heap of
    stamps (tile, slot, last use, refetch cost), one pushed whenever a
    tile's pin count drops to 0. A stamp is stale once its tile is
    evicted or pinned again, which its slot tells; stale stamps are
    dropped as they reach the top. Every reference ticks a clock, so no
    two resident tiles share a last use, and the least valid stamp names
    the tile a fold over every unpinned tile would pick. The heap holds
    at most one stamp per unpin made on the set. *)

val evict : t -> int -> unit
(** Remove the slot's tile, unpinned and resident. Raises
    [Invalid_argument] naming the tile if it is absent or pinned. *)
