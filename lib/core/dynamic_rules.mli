(** Dynamic-selection heuristics (Section 4.2).

    Whenever the communication link becomes idle, the next task is chosen
    among the remaining tasks that (a) fit in the currently available
    memory and (b) induce the minimum idle time on the processing unit;
    ties within that set are resolved by the selection criterion. If no
    remaining task fits, the link stays idle until the next memory-release
    event. Communications and computations keep the same order. *)

type criterion = Candidates.criterion =
  | LCMR  (** largest communication time *)
  | SCMR  (** smallest communication time *)
  | MAMR  (** maximum acceleration, i.e. ratio computation/communication *)

val all : criterion list
val name : criterion -> string

val run : ?state:Sim.state -> ?min_idle_filter:bool -> criterion -> Instance.t -> Schedule.t
(** The {!Greedy} loop without a static order, every task arriving at
    [0.]. Raises [Invalid_argument] if a task alone exceeds the capacity.
    [min_idle_filter] (default [true]) restricts the selection to tasks
    inducing minimum idle time on the processing unit, as the paper
    specifies; disabling it is an ablation that shows the filter's
    contribution. *)
