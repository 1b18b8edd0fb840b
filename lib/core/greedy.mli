(** The greedy decision loop of Sections 4.2–4.3, aware of arrival times.

    One loop serves the dynamic heuristics ({!Dynamic_rules}), the
    corrected heuristics ({!Corrected_rules}) and the online engine of
    the runtime service. Whenever the communication link becomes idle it
    schedules one arrived task:

    - under a static order (the corrected heuristics), the order's head
      among the arrived tasks ({!Candidates.static_head}, O(1)), if it
      fits in the free memory;
    - otherwise the task {!Candidates.select} picks among the arrived
      tasks that fit.

    When nothing has arrived or nothing fits, the link waits for the
    earlier of the next memory release and the next arrival (the release
    on a tie). Offline runs add every task at arrival [0.]: they never
    wait for an arrival, and the loop is then exactly the offline
    heuristic. *)

type t

val create :
  ?state:Sim.state ->
  ?min_idle_filter:bool ->
  ?static:Candidates.order ->
  capacity:float ->
  Candidates.criterion ->
  t
(** An empty loop that schedules on [state] (default: everything free at
    [0.]). [static] is the static order of a corrected heuristic, kept by
    the candidate index; without it the loop is a dynamic heuristic.
    [min_idle_filter] is passed to {!Candidates.select}. *)

val mem : t -> int -> bool
(** Is a task with this id pending (added, not yet scheduled)? *)

val add : t -> arrival:float -> Task.t -> unit
(** Add a task that becomes selectable once the link-free instant
    reaches [arrival]; until then it is reserved in the index
    ({!Candidates.reserve}), so that its arrival costs O(log n). The task
    must fit the capacity alone. Raises [Invalid_argument] ("Candidates.add:
    duplicate task id <id>", or "Candidates.reserve: ..." for a later
    arrival) when a task with its id is pending; {!mem} tells first. *)

val drain : t -> Schedule.entry list
(** Schedule every pending task and return the new entries in
    scheduling order. The loop stays usable: later additions continue
    from the drained state. *)

val run :
  who:string ->
  ?state:Sim.state ->
  ?min_idle_filter:bool ->
  ?static:Candidates.order ->
  capacity:float ->
  Candidates.criterion ->
  Task.t list ->
  Schedule.t
(** The offline heuristic: add every task at arrival [0.], in one
    {!Candidates.load}, and drain. Raises [Invalid_argument "<who>: task
    <id> needs <mem> > capacity <capacity>"] when a task alone exceeds
    the capacity, and {!Candidates.load}'s [Invalid_argument] when two
    tasks share an id. *)
