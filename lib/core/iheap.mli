(** Binary min-heaps.

    The priority queues of the greedy decision loop's future arrivals
    ({!Greedy}), of the residency set's eviction stamps ({!Residency})
    and of the cluster event simulator. Elements are only ever consumed
    from the top: a caller that must retire an element early leaves it
    in place and drops it when it surfaces.

    The comparator must be a total preorder; equal elements are served
    in an unspecified but deterministic order, so callers that need a
    full tie-break (e.g. by id) must encode it in [cmp]. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** An empty min-heap under [cmp]. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> 'a -> unit
(** O(log n). *)

val peek : 'a t -> 'a option
(** Smallest element under [cmp], O(1). *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element, O(log n). *)
