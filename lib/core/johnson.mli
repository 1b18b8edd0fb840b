(** Johnson's algorithm (Algorithm 1 of the paper): the optimal order for
    the infinite-memory case, viewed as a 2-machine flowshop where machine
    1 is the communication link and machine 2 the processing unit.

    The resulting makespan, called OMIM ({e optimal makespan infinite
    memory}), is the lower bound against which every heuristic is measured
    (ratio [r = makespan / OMIM >= 1]). *)

val compare : Task.t -> Task.t -> int
(** Johnson's rule as a total order on tasks with distinct ids:
    compute-intensive tasks ([comp >= comm]) first, by nondecreasing
    communication time, then the remaining tasks by nonincreasing
    computation time. Ties broken by task id. *)

val order : Task.t list -> Task.t list
(** The tasks sorted by {!compare}. *)

val omim : Task.t list -> float
(** Makespan of {!order} executed without any memory constraint. *)

val omim_schedule : Task.t list -> Schedule.t
(** The witness schedule behind {!omim} (capacity recorded as infinite). *)
