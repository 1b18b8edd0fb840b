(** Static order with dynamic corrections (Section 4.3).

    The OMIM order (Johnson's order, optimal with infinite memory) is
    followed as long as its next task fits in memory when the link becomes
    idle. When it does not, a task is selected dynamically — among the
    pending tasks that fit and induce minimum idle time on the processing
    unit — and removed from the pending order. When nothing fits, the link
    waits for the next memory release. *)

type rule =
  | OOLCMR  (** correction picks the largest communication time *)
  | OOSCMR  (** correction picks the smallest communication time *)
  | OOMAMR  (** correction picks the maximum computation/communication ratio *)

val all : rule list
val name : rule -> string
val criterion : rule -> Dynamic_rules.criterion

val run : ?state:Sim.state -> ?order:Task.t list -> rule -> Instance.t -> Schedule.t
(** The {!Greedy} loop under the static order, every task arriving at
    [0.]. [order] replaces both the instance's tasks and Johnson's OMIM
    order ({!Johnson.compare}, the default); used by ablation benches.
    Raises [Invalid_argument] if a task alone exceeds the capacity or two
    tasks of [order] share an id. *)
