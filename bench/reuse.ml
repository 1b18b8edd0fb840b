(* Reuse-factor sweep for the tile residency model: synthetic task
   streams whose tasks each read K tiles drawn from a shared pool of P
   tiles, so the expected reuse factor R = n*K/P is controlled by the
   pool size. For each R the sweep compares the no-sharing baseline
   (annotation-blind SCMR) against the residency model and records the
   hit rate and both makespans.

   The cached result is the best of {Lru, Min_refetch} x {evict-aware
   SCMR, the no-sharing order replayed under the cache}. The replay arm
   makes the "cached never worse" gate structural: re-running the exact
   baseline order under residency can only shorten transfers (hits skip
   their share, eviction is free and on demand), so the minimum over all
   arms is <= the baseline at every point. *)

open Dt_core

let tiles_per_task = 3

let reuse_factors = [ 1.0; 2.0; 4.0; 8.0; 16.0 ]

(* Tile t's size is fixed for the whole stream, so every task referencing
   t carves out the same (comm, mem) share — the residency table sees a
   consistent tile whichever task admits it. *)
let make_pool rng ~pool = Array.init pool (fun _ -> 0.5 +. Dt_stats.Rng.float rng 1.5)

let make_tasks rng ~n ~pool_bytes =
  let pool = Array.length pool_bytes in
  List.init n (fun id ->
      let picked = ref [] in
      while List.length !picked < tiles_per_task do
        let t = Dt_stats.Rng.int rng pool in
        if not (List.mem t !picked) then picked := t :: !picked
      done;
      let tiles_ids = List.sort compare !picked in
      let tiles_bytes =
        List.fold_left (fun a t -> a +. pool_bytes.(t)) 0.0 tiles_ids
      in
      let private_bytes = 0.3 +. Dt_stats.Rng.float rng 0.6 in
      let bytes = tiles_bytes +. private_bytes in
      let comp = 0.4 +. Dt_stats.Rng.float rng 2.0 in
      (* unit link bandwidth: comm = bytes, so each tile's transfer share
         is exactly its size *)
      let tiles =
        List.map
          (fun t -> { Task.tile = t; t_comm = pool_bytes.(t); t_mem = pool_bytes.(t) })
          tiles_ids
      in
      Task.make ~id ~comm:bytes ~comp ~mem:bytes ~tiles ())

let capacity_for tasks =
  let sum = List.fold_left (fun a (t : Task.t) -> a +. t.Task.mem) 0.0 tasks in
  6.0 *. sum /. float_of_int (List.length tasks)

type point = {
  reuse : float;
  pool : int;
  hit_rate : float;
  policy : string;
  arm : string; (* "heuristic" or "replay" *)
  cached_ms : float;
  no_sharing_ms : float;
}

let hit_rate_of (s : Residency.stats) =
  let total = s.Residency.hits + s.Residency.misses in
  if total = 0 then 0.0 else float_of_int s.Residency.hits /. float_of_int total

(* The n-task stream at reuse factor R, and its pool size. *)
let instance ~n reuse =
  let pool = max tiles_per_task (int_of_float (float_of_int (n * tiles_per_task) /. reuse)) in
  let rng = Dt_stats.Rng.create (20190805 + pool) in
  let pool_bytes = make_pool rng ~pool in
  let tasks = make_tasks rng ~n ~pool_bytes in
  (Instance.make_keep_ids ~capacity:(capacity_for tasks) tasks, pool)

let measure ~n reuse =
  let instance, pool = instance ~n reuse in
  let capacity = instance.Instance.capacity in
  let baseline = Dynamic_rules.run Dynamic_rules.SCMR instance in
  let no_sharing_ms = Schedule.makespan baseline in
  let order = List.map (fun (e : Schedule.entry) -> e.Schedule.task) (Schedule.entries baseline) in
  let arms =
    List.concat_map
      (fun policy ->
        let pname = Residency.policy_name policy in
        let heuristic =
          let sched, stats = Cached_rules.run ~policy Dynamic_rules.SCMR instance in
          (pname, "heuristic", Schedule.makespan sched, hit_rate_of stats)
        in
        let replay =
          match Sim.run_order_cached ~policy ~capacity order with
          | Ok (sched, stats) ->
              [ (pname, "replay", Schedule.makespan sched, hit_rate_of stats) ]
          | Error _ -> []
        in
        heuristic :: replay)
      Residency.all_policies
  in
  let policy, arm, cached_ms, hit_rate =
    List.fold_left
      (fun (_, _, bm, _ as best) (_, _, m, _ as cand) -> if m < bm then cand else best)
      (List.hd arms) (List.tl arms)
  in
  let p = { reuse; pool; hit_rate; policy; arm; cached_ms; no_sharing_ms } in
  Printf.printf
    "  R=%-5.1f pool=%-6d hit-rate %.3f (%s/%s)  cached %.1f  vs  no-sharing %.1f\n%!"
    reuse pool hit_rate policy arm cached_ms no_sharing_ms;
  p

let sweep_memo = ref None

let sweep () =
  match !sweep_memo with
  | Some pts -> pts
  | None ->
      let n = if Data.fast then 400 else 2_000 in
      Printf.printf "\n-- reuse-factor sweep (residency model, n=%d, K=%d) --\n" n
        tiles_per_task;
      let pts = List.map (measure ~n) reuse_factors in
      sweep_memo := Some pts;
      pts

(* JSON fields spliced into BENCH_core.json by [Core_scaling.run]. *)
let fields oc =
  let pts = sweep () in
  output_string oc "  \"reuse_sweep\": [\n";
  let last = List.length pts - 1 in
  List.iteri
    (fun i p ->
      Printf.fprintf oc
        "    { \"reuse_factor\": %.2f, \"pool\": %d, \"hit_rate\": %.4f, \
         \"policy\": \"%s\", \"arm\": \"%s\", \"cached_makespan\": %.6f, \
         \"no_sharing_makespan\": %.6f }%s\n"
        p.reuse p.pool p.hit_rate p.policy p.arm p.cached_ms p.no_sharing_ms
        (if i = last then "" else ","))
    pts;
  output_string oc "  ],\n";
  let max_hit = List.fold_left (fun a p -> Float.max a p.hit_rate) 0.0 pts in
  let first = List.hd pts and final = List.nth pts last in
  let rises = final.hit_rate > first.hit_rate in
  let never_worse = List.for_all (fun p -> p.cached_ms <= p.no_sharing_ms) pts in
  Printf.fprintf oc "  \"reuse_hit_rate\": %.4f,\n" max_hit;
  Printf.fprintf oc
    "  \"reuse_gates\": { \"hit_rate_positive\": %b, \"hit_rate_rises\": %b, \
     \"cached_never_worse\": %b },\n"
    (max_hit > 0.0) rises never_worse

let run () =
  let pts = sweep () in
  let ok = List.for_all (fun p -> p.cached_ms <= p.no_sharing_ms) pts in
  Printf.printf "reuse sweep: cached %s no-sharing at every point\n"
    (if ok then "<=" else "EXCEEDED")
