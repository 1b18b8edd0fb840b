(** A persistent pool of worker domains on OCaml 5.

    The worker domains share one FIFO of tasks under one lock.
    {!parallel_map} appends min(workers, n - 1) copies of one helper to
    it and runs the same helper on the calling domain; every helper
    claims the next index from the job's shared counter until none is
    left. So [d] workers and the caller compute on [d + 1] domains, and a
    job always completes even if every worker is busy — concurrent and
    nested calls cannot deadlock. Results are collected into per-index
    slots, so the output is bit-identical to [Array.map f a] regardless
    of which domain computed which element. *)

type t
(** A pool of worker domains. Create once, reuse across many calls. *)

type stats = {
  jobs : int;  (** total work accepted: [parallel_map] calls *)
  fallbacks : int;
      (** [parallel_map] calls that ran inline on the caller instead of
          fanning out because they were issued from inside pool work
          (nested parallelism). A high ratio of [fallbacks] to [jobs]
          means the pool is used in a way where parallelism never
          engages. *)
  steals : int;
      (** always 0: the pool has no work stealing. The field stays
          because perfbench's per-layer report ([par.steals]) still
          reads it. *)
}

val create : ?num_domains:int -> unit -> t
(** [create ?num_domains ()] spawns the worker domains.

    [num_domains] defaults to the [DTSCHED_DOMAINS] environment variable
    when set, otherwise to [Domain.recommended_domain_count () - 1]
    (at least 1), leaving a core for the submitting domain.

    @raise Invalid_argument if [num_domains <= 0], or if
    [DTSCHED_DOMAINS] is set to anything but a positive integer. *)

val num_domains : t -> int
(** Number of worker domains in the pool. *)

val stats : t -> stats
(** Monotone counters since {!create}. Cheap; safe from any domain. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f a] is [Array.map f a], computed cooperatively
    by the calling domain and the pool's workers, which claim indices
    one at a time from a shared counter. Bit-identical to the sequential
    map; if any [f] application raises, the first such exception is
    re-raised in the caller (with its backtrace) after the job
    quiesces, and the pool remains usable.

    Inputs of at most one element run inline. Calls from inside pool
    work (nested parallelism) run inline too and are counted in
    {!stats}[.fallbacks].

    @raise Invalid_argument if the pool is shut down. *)

val shutdown : t -> unit
(** Stops and joins the worker domains. Idempotent. Any
    {!parallel_map} after shutdown raises [Invalid_argument]. *)

val with_pool : ?num_domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down on exit,
    normal or exceptional. *)

val default_num_domains : unit -> int
(** The domain count {!create} uses when [num_domains] is omitted. *)
