(** Communication- and memory-aware load balancing over a cluster
    topology, after the Sandia model (arXiv 2404.16793): the modeled
    completion time of a unit combines the compute work placed on it,
    the communication volume squeezed through its (shared) link, and a
    penalty for over-subscribing its node's memory; the balancer
    migrates whole process traces between units to reduce the maximum
    modeled time.

    Migration invariants (checked by the test suite): a balanced
    placement is a reassignment only — the total communication volume,
    computation volume and task count over all processes are unchanged,
    and no process is placed on a node whose memory capacity its
    largest task exceeds. *)

type cost_model = {
  alpha : float;  (** weight of per-unit computation time *)
  beta : float;   (** weight of per-link communication time (volume / bandwidth) *)
  gamma : float;  (** weight of the node memory over-subscription penalty *)
}

val default_cost_model : cost_model
(** [alpha = 1, beta = 1, gamma = 1]: compute and communication count at
    face value, memory over-subscription is penalised in comparable
    time units (see {!cost}). *)

type strategy =
  | No_migration            (** keep the given placement (baseline) *)
  | Greedy                  (** max-transfer-first: repeatedly move the
                                heaviest process off the most loaded unit *)
  | Diffusive               (** iterative refinement: overloaded units
                                shed their smallest processes to the
                                least loaded unit while the pair improves
                                and the global maximum does not regress *)

val strategy_name : strategy -> string

val cost :
  Topology.t -> cost_model -> Dt_trace.Fleet.trace_summary array -> int array -> float
(** The modeled application completion time: the max over units of a
    unit's modeled completion time under the placement,
    [alpha * sum of resident comp volumes
     + beta * (comm volume through the unit's link) / bandwidth
     + gamma * overuse(node) * mean unit work], where [overuse] is the
    fraction by which the node's resident memory peaks exceed its
    capacity. The memory term scales with the workload so the penalty
    is commensurate with the time terms. *)

val balance :
  ?max_iters:int ->
  ?cost_model:cost_model ->
  Topology.t ->
  Dt_trace.Fleet.trace_summary array ->
  strategy ->
  int array ->
  int array * int
(** [balance topo summaries strategy placement] returns the improved
    placement and the number of migrations performed. The input
    placement is not mutated. Candidate destinations whose node cannot
    hold a process's largest task ([mem_peak] above capacity) are never
    used. [max_iters] (default 4 x process count) bounds the migration
    count. Raises [Invalid_argument] when [placement] and [summaries]
    disagree or the placement is out of range. *)
