(** The mixed-integer linear program of Section 4.5 and the iterative
    [lp.k] heuristic built on it.

    The MILP decides, for every pair of tasks, their order on the link
    ([a]), on the processing unit ([b]) and whether one task's computation
    completes before the other's communication starts ([c], which drives
    the memory constraint), and minimises the makespan. The paper solved it
    with GLPK and found it impractical beyond a handful of tasks; we solve
    it with the in-tree branch-and-bound ({!Dt_lp.Milp}) under a node
    budget, keeping the eager schedule of the chunk as incumbent — which
    reproduces both the mechanics and the observed behaviour (lp.k is
    dominated by the cheap heuristics). *)

type boundary = {
  link_free : float;            (** link availability when the chunk starts *)
  cpu_free : float;             (** processing-unit availability *)
  held : (float * float) list;  (** (release instant, memory) of unfinished
                                    tasks from earlier chunks *)
}

val initial_boundary : boundary

val solve_chunk :
  ?node_limit:int ->
  boundary:boundary ->
  capacity:float ->
  Task.t list ->
  Schedule.entry list option
(** Solve the MILP for one chunk of tasks starting from the boundary
    state. [None] when the branch and bound found nothing better than the
    caller's incumbent within its node budget. The decoded entries are
    re-executed eagerly in the orders the rounded [a] (link) and [b]
    (processing unit) variables fix, so the result is always a valid
    schedule at least as good as the MILP times. *)

val run : ?node_limit:int -> ?boundary:boundary -> k:int -> Instance.t -> Schedule.t
(** The [lp.k] heuristic: split the submission order into consecutive
    chunks of [k] tasks, solve each chunk's MILP given the boundary left
    by the previous chunk (unfinished tasks keep their memory until their
    fixed completion instants), concatenate. Falls back to the eager
    submission-order schedule of a chunk when the MILP yields nothing
    better. Raises [Invalid_argument] if a task alone exceeds the
    capacity or [k < 1]. *)
