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

    {b Slots.} Tile ids are global names, an array's base plus a tile
    index, so they may be sparse and large. The set interns each id the
    first time it sees it: {!slot} gives it the next dense slot, for
    good, through the one hash table of the set. A tile's state (pin
    count, last use, refetch cost, memory share) lives in flat arrays by
    slot, so a caller holding slots reads and writes it with no lookup
    ({!slot_pins}, {!touch_slot}, {!unpin_slot}, {!evict_next}); the
    id-level functions look the slot up first. A slot outlives its
    tile's eviction, so the set's memory grows with the distinct tiles
    it has seen, not with the tiles resident. *)

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

type t

val create : ?policy:policy -> unit -> t
(** An empty residency set (default policy {!Lru}). *)

val resident_bytes : t -> float
(** Memory currently held by resident tiles (pinned or not). *)

val pinned_bytes : t -> float
(** Memory held by tiles with at least one pin. *)

val resident_tiles : t -> int
val is_resident : t -> int -> bool

val pin_count : t -> int -> int
(** [0] when the tile is not resident. *)

val pins : t -> int -> int
(** The tile's pin count when it is resident, [-1] when it is not:
    {!is_resident} and {!pin_count} in one table lookup. *)

val stats : t -> stats

val touch : t -> Task.tile_ref -> [ `Hit | `Miss ]
(** Reference a tile at a task's communication start: a resident tile is
    a hit, an absent one is admitted (miss). Pins the tile either way;
    the caller must {!unpin} it at the task's computation end. On a miss
    the tile's memory is charged to {!resident_bytes}. Raises
    [Invalid_argument] naming the tile, and changes nothing, when the
    tile is resident with a memory share other than the reference's
    [t_mem] (transfer shares may differ). *)

val unpin : t -> int -> unit
(** Release one pin. Raises [Invalid_argument] if the tile is not
    resident or not pinned. *)

val evict_candidate : t -> int option
(** The unpinned tile the policy would evict next ([None] when every
    resident tile is pinned). Deterministic: ties break by recency and
    tile id, never by hash order or slot.

    O(log r) amortized over r resident tiles: the set keeps a min-heap of
    stamps (tile, slot, last use, refetch cost), one pushed whenever a
    tile's pin count drops to 0. A stamp is stale once its tile is
    evicted or pinned again, which its slot tells; stale stamps are
    dropped as they reach the top. Every reference ticks a clock, so no
    two resident tiles share a last use, and the least valid stamp names
    the tile a fold over every unpinned tile would pick. The heap holds
    at most one stamp per unpin made on the set. *)

val evict : t -> int -> unit
(** Remove an unpinned resident tile. Raises [Invalid_argument] if the
    tile is absent or pinned. *)

(** {1 Slot-level access}

    For executors and decision loops that resolve each tile id once. A
    slot is only meaningful for the set that gave it. *)

val slot : t -> int -> int
(** The tile's slot: the one it was given when the set first saw it, or
    the next free one, given now. Slots are [0, 1, 2, ...] in the order
    the set first sees the tiles. Interning changes no residency state. *)

val slot_pins : t -> int -> int
(** {!pins} by slot: an array read. *)

val touch_slot : t -> int -> Task.tile_ref -> [ `Hit | `Miss ]
(** {!touch} on a reference whose tile has this slot. *)

val unpin_slot : t -> int -> unit
(** {!unpin} by slot. *)

val evict_next : t -> bool
(** Evict the tile {!evict_candidate} names; [false], and no change,
    when every resident tile is pinned. *)
