(** Automatic strategy selection — the runtime-system direction the
    paper's conclusion announces ("exposing different heuristics ... and
    automatically selecting the best one").

    The heuristics cost microseconds to milliseconds while the schedules
    they produce span much longer transfers, so a runtime can afford to
    try a portfolio and keep the winner. *)

val default_portfolio : Heuristic.t list
(** The cheap heuristics (everything except lp.k). *)

val select : ?candidates:Heuristic.t list -> Instance.t -> Heuristic.t * Schedule.t
(** Run every candidate and return the one with the smallest makespan
    (ties: first in the list). Parallelism belongs one level up: a fleet
    runs one selection per process trace on a pool
    ([Dt_trace.Fleet.run]). Raises [Invalid_argument] on an empty
    candidate list or an infeasible instance. *)

val run : ?candidates:Heuristic.t list -> Instance.t -> Schedule.t
