(** Tiled task-stream generators for the two chemistry kernels.

    These replace the traces the paper collected by instrumenting NWChem
    on Cascade. The heuristics only observe per-task (communication time,
    computation time, memory) triples; the generators reproduce the
    distributional features the paper's analysis hinges on:

    - HF (SiOSi input, tile size 100): one task per symmetry-unique
      quartet of density/Fock tiles; tasks fetch two density tiles plus a
      small index block from the Global Array, so memory requirements are
      nearly homogeneous, maxing at [2 * 100*100*8 + 16K = 176 KB] (the
      paper's [m_c]); integral screening leaves most quartets with little
      computation, so the workload is communication-bound, and the
      compute-heavy unscreened quartets tend to involve the small edge
      tiles (Table 6's "HF compute-intensive tasks have small
      communication times").
    - CCSD (uracil input, automatic tile sizes): tasks come from the T2
      amplitude-update contractions over heterogeneous occupied/virtual
      tiles, from tiny T1 terms to block contractions against
      four-virtual-index integral tiles of gigabyte scale; communications
      and computations are roughly balanced in aggregate, with a wide mix
      of both task types.

    Every stream is deterministic in [(seed, proc)]: the same seed
    produces the identical trace, tile annotations included.

    Tasks carry {!Dt_core.Task.tile_ref} annotations naming the remote
    Global Array tiles behind their traffic (the whole density tile for
    HF quartets; every remote input block for CCSD terms, with tile ids
    globalised across the five arrays). The shares are proportional
    carve-outs of the unchanged [(comm, mem)] totals, so annotation-blind
    executors see exactly the stream they always saw, while the residency
    model ({!Dt_core.Residency}) can exploit inter-task reuse. *)

val hf_tasks :
  ?tile:int ->
  ?seed:int ->
  cluster:Dt_ga.Cluster.t ->
  nbf:int ->
  proc:int ->
  unit ->
  Dt_core.Task.t list
(** The task stream of one process ([0 <= proc < processes cluster]).
    [nbf] is the number of basis functions (the SiOSi runs of the paper
    are matched by [nbf ~ 3000] with the default [tile = 100]). *)

val hf_trace_set :
  ?tile:int ->
  ?seed:int ->
  cluster:Dt_ga.Cluster.t ->
  nbf:int ->
  unit ->
  Dt_core.Task.t list array
(** All processes at once (single enumeration pass). *)

val ccsd_tasks :
  ?seed:int ->
  cluster:Dt_ga.Cluster.t ->
  n_occ:int ->
  n_virt:int ->
  proc:int ->
  unit ->
  Dt_core.Task.t list
(** Uracil-like dimensions: [n_occ = 29] occupied and a few hundred
    virtual orbitals. *)

val ccsd_trace_set :
  ?seed:int ->
  cluster:Dt_ga.Cluster.t ->
  n_occ:int ->
  n_virt:int ->
  unit ->
  Dt_core.Task.t list array
