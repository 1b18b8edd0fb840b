(* Cluster experiment: cooperative vs independent scheduling on a
   contended topology.

   The paper's model gives every process a private link and memory; here
   the same HF and CCSD fleets run on a small cluster (4 nodes x 2 units
   sharing one NIC per node, node-wide memory), where the independent
   per-process plans collide on the shared links. The comparison is

     independent   block placement, no balancing — what a launcher that
                   ignores the topology produces;
     greedy        max-transfer-first migration under the comm+memory
                   cost model;
     diffusive     iterative pairwise refinement under the same model.

   Cluster.run verifies every balanced plan against the contention
   simulator and falls back to the initial placement when the model
   mispredicts, so cooperative >= independent holds by construction —
   the gate below re-checks it from the measured makespans anyway.
   Results land in BENCH_cluster.json with provenance stamps. *)

let factor = 1.5

(* Node memory sized like dtsched cluster's auto default: enough for the
   largest single process, and for an even share of the fleet, but tight
   enough that co-resident processes contend. *)
let node_mem_for traces ~nodes =
  let mcs = Array.map Dt_trace.Trace.min_capacity traces in
  let max_mc = Array.fold_left Float.max 0.0 mcs in
  let total = Array.fold_left ( +. ) 0.0 mcs in
  Float.max (factor *. max_mc) (factor *. total /. Float.of_int nodes)

let mean_max_util result =
  let util = Dt_cluster.Link_sim.utilisation result in
  let n = Array.length util in
  if n = 0 then (0.0, 0.0)
  else
    let sum = Array.fold_left (fun a (_, _, u) -> a +. u) 0.0 util in
    let mx = Array.fold_left (fun a (_, _, u) -> Float.max a u) 0.0 util in
    (sum /. Float.of_int n, mx)

type row = {
  kernel : string;
  mode : Dt_cluster.Link_sim.mode;
  strategy : Dt_cluster.Balancer.strategy;
  traces : int;
  independent_makespan : float;
  cooperative_makespan : float;
  migrations : int;
  kept_balanced : bool;
  mean_util_independent : float;
  mean_util_cooperative : float;
  max_util_cooperative : float;
}

let speedup r =
  if r.cooperative_makespan > 0.0 then
    r.independent_makespan /. r.cooperative_makespan
  else 1.0

let run () =
  Printf.printf "\n== cluster: cooperative vs independent on shared links ==\n\n";
  let nodes = 4 and units_per_node = 2 in
  let policy = Dt_trace.Fleet.Portfolio Dt_core.Heuristic.all in
  let kernels =
    [
      ("hf", Lazy.force Data.hf_traces);
      ("ccsd", Lazy.force Data.ccsd_traces);
    ]
  in
  let limit = if Data.fast then 20 else 60 in
  let kernels =
    List.map
      (fun (name, traces) ->
        (name, Array.sub traces 0 (min limit (Array.length traces))))
      kernels
  in
  let strategies = Dt_cluster.Balancer.[ Greedy; Diffusive ] in
  let modes = Dt_cluster.Link_sim.[ Fcfs; Ps ] in
  let rows, pool_stats =
    Dt_par.Pool.with_pool (fun pool ->
        let rows =
          List.concat_map
            (fun (kernel, traces) ->
              let topo =
                Dt_cluster.Topology.shared ~nodes ~units_per_node
                  ~node_mem:(node_mem_for traces ~nodes) ()
              in
              List.concat_map
                (fun mode ->
                  List.map
                    (fun strategy ->
                      let config =
                        { Dt_cluster.Cluster.default_config with mode; strategy }
                      in
                      let o =
                        Dt_cluster.Cluster.run ~capacity_factor:factor ~pool
                          ~config topo policy traces
                      in
                      let mean_ind, _ =
                        mean_max_util o.Dt_cluster.Cluster.independent
                      in
                      let mean_coop, max_coop =
                        mean_max_util o.Dt_cluster.Cluster.cooperative
                      in
                      {
                        kernel;
                        mode;
                        strategy;
                        traces = Array.length traces;
                        independent_makespan =
                          o.Dt_cluster.Cluster.independent_makespan;
                        cooperative_makespan =
                          o.Dt_cluster.Cluster.application_makespan;
                        migrations = o.Dt_cluster.Cluster.migrations;
                        kept_balanced = o.Dt_cluster.Cluster.kept_balanced;
                        mean_util_independent = mean_ind;
                        mean_util_cooperative = mean_coop;
                        max_util_cooperative = max_coop;
                      })
                    strategies)
                modes)
            kernels
        in
        (rows, Dt_par.Pool.stats pool))
  in
  Dt_report.Table.print
    ~header:
      [
        "kernel"; "mode"; "balancer"; "app makespan"; "speedup"; "migrations";
        "mean link util"; "max link util";
      ]
    (List.concat_map
       (fun (kernel, _) ->
         List.concat_map
           (fun mode ->
             let group =
               List.filter (fun r -> r.kernel = kernel && r.mode = mode) rows
             in
             match group with
             | [] -> []
             | base :: _ ->
                 [
                   kernel;
                   Dt_cluster.Link_sim.mode_name mode;
                   "independent";
                   Printf.sprintf "%.3f" base.independent_makespan;
                   "1.00x";
                   "0";
                   Printf.sprintf "%.2f" base.mean_util_independent;
                   "-";
                 ]
                 :: List.map
                      (fun r ->
                        [
                          kernel;
                          Dt_cluster.Link_sim.mode_name r.mode;
                          Dt_cluster.Balancer.strategy_name r.strategy;
                          Printf.sprintf "%.3f" r.cooperative_makespan;
                          Printf.sprintf "%.2fx" (speedup r);
                          string_of_int r.migrations;
                          Printf.sprintf "%.2f" r.mean_util_cooperative;
                          Printf.sprintf "%.2f" r.max_util_cooperative;
                        ])
                      group)
           modes)
       kernels);
  Printf.printf
    "\n(%d nodes x %d units, 1 shared link per node, block placement; \
     independent = same topology without balancing; pool \
     jobs/fallbacks %d/%d)\n"
    nodes units_per_node pool_stats.Dt_par.Pool.jobs
    pool_stats.Dt_par.Pool.fallbacks;
  let not_worse =
    List.for_all
      (fun r ->
        r.cooperative_makespan
        <= r.independent_makespan *. (1.0 +. 1e-9))
      rows
  in
  let best =
    List.fold_left (fun acc r -> Float.max acc (speedup r)) 1.0 rows
  in
  let total_migrations =
    List.fold_left (fun acc r -> acc + r.migrations) 0 rows
  in
  Printf.printf "GATE cluster_not_worse=%b best_speedup=%.3f migrations=%d\n"
    not_worse best total_migrations;
  Provenance.write_artifact ~path:"BENCH_cluster.json" ~experiment:"cluster"
    (fun oc ->
      Printf.fprintf oc
        "  \"fast_mode\": %b,\n\
        \  \"nodes\": %d,\n\
        \  \"units_per_node\": %d,\n\
        \  \"links_per_node\": 1,\n\
        \  \"capacity_factor\": %g,\n\
        \  \"cooperative_not_worse\": %b,\n\
        \  \"best_speedup\": %.4f,\n\
        \  \"total_migrations\": %d,\n\
        \  \"pool_jobs\": %d,\n\
        \  \"configs\": [\n"
        Data.fast nodes units_per_node factor not_worse best total_migrations
        pool_stats.Dt_par.Pool.jobs;
      let last = List.length rows - 1 in
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    { \"kernel\": \"%s\", \"mode\": \"%s\", \"balancer\": \"%s\", \
             \"traces\": %d, \"independent_makespan\": %.17g, \
             \"cooperative_makespan\": %.17g, \"speedup\": %.4f, \
             \"migrations\": %d, \"kept_balanced\": %b, \
             \"mean_link_util_independent\": %.4f, \
             \"mean_link_util_cooperative\": %.4f, \
             \"max_link_util_cooperative\": %.4f }%s\n"
            (Provenance.json_escape r.kernel)
            (Dt_cluster.Link_sim.mode_name r.mode)
            (Dt_cluster.Balancer.strategy_name r.strategy)
            r.traces r.independent_makespan r.cooperative_makespan (speedup r)
            r.migrations r.kept_balanced r.mean_util_independent
            r.mean_util_cooperative r.max_util_cooperative
            (if i = last then "" else ","))
        rows;
      output_string oc "  ]\n");
  if not not_worse then
    failwith "cluster bench: cooperative scheduling lost to independent"
