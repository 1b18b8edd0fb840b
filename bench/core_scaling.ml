(* Core complexity sweep: the O(n log n) decision-loop rewrite against
   the frozen quadratic implementations (Reference), on synthetic instances
   of growing size.

     offline sweep  all 6 policies (3 dynamic + 3 corrected) on one
                    instance per size;
     online drain   the arrival-aware engine (OOSCMR) fed n tasks at
                    load 2 (arrivals twice as fast as the link drains
                    them, so the arrived backlog grows and the old
                    per-step Johnson re-sort is maximally exposed).

     cached         the evict-aware loop (Cached_rules, SCMR+lru) on the
                    reuse sweep's task stream at reuse factor 4, against
                    the frozen list scan.

   Emits BENCH_core.json: before/after wall-clock per size plus the
   fitted scaling exponent of the new code (log-log least squares); the
   exponent is the regression tripwire — a return to linear scans shows
   up as an exponent near 2.  "Before" runs are capped at 50k tasks
   (the quadratic online drain already takes minutes there), 5k for
   the cached loop (whose list scan takes ~6 s there); the new code runs
   the full grid.

   `core-smoke` is the CI guard: the 5k-task offline sweep plus online
   drain, and the 5k-task cached run, must each finish under
   DTSCHED_SMOKE_BUDGET seconds (default 2.0) — a budget the quadratic
   code cannot meet — each of the six offline policies and the online
   session must allocate at most [alloc_budget] minor words per task,
   and the cached loop (SCMR under both eviction policies, on the 5k
   reuse stream) at most [cached_alloc_budget]. Beside each count it
   prints the run's minor collections and how many of them its
   allocation alone explains, with no threshold. *)

open Dt_core
module Engine = Dt_runtime.Engine

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best-of-[reps] timing: small sizes run in microseconds, where a single
   sample is all GC noise. *)
let best_of reps f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let r, w = wall f in
    result := Some r;
    if w < !best then best := w
  done;
  (Option.get !result, !best)

let reps_for n = if n <= 1_000 then 7 else if n <= 5_000 then 5 else if n <= 20_000 then 3 else 1

(* Synthetic workload: deterministic, memory-tight enough (capacity ~ six
   mean task footprints) that tasks queue on memory and the release-wait
   paths fire constantly. *)
let make_tasks n =
  let rng = Dt_stats.Rng.create (20190805 + n) in
  List.init n (fun id ->
      let comm = Dt_stats.Rng.uniform rng 0.5 4.0 in
      let comp = Dt_stats.Rng.uniform rng 0.25 6.0 in
      let mem = comm *. Dt_stats.Rng.uniform rng 1.0 1.5 in
      Task.make ~id ~comm ~comp ~mem ())

let capacity_for tasks =
  let sum = List.fold_left (fun a (t : Task.t) -> a +. t.Task.mem) 0.0 tasks in
  6.0 *. sum /. float_of_int (List.length tasks)

let mean_comm tasks =
  List.fold_left (fun a (t : Task.t) -> a +. t.Task.comm) 0.0 tasks
  /. float_of_int (List.length tasks)

let offline_policies =
  List.map (fun c -> `Dynamic c) Dynamic_rules.all
  @ List.map (fun r -> `Corrected r) Corrected_rules.all

let offline_name = function
  | `Dynamic c -> Dynamic_rules.name c
  | `Corrected r -> Corrected_rules.name r

let offline_run p instance =
  Schedule.makespan
    (match p with
    | `Dynamic c -> Dynamic_rules.run c instance
    | `Corrected r -> Corrected_rules.run r instance)

let offline_after instance = List.map (fun p -> offline_run p instance) offline_policies

let offline_before instance =
  List.map
    (fun p ->
      Schedule.makespan
        (match p with
        | `Dynamic c -> Reference.Dyn.run c instance
        | `Corrected r -> Reference.Cor.run r instance))
    offline_policies

let online_policy = Engine.Corrected Corrected_rules.OOSCMR

let online_after ~capacity ~spacing tasks =
  (* the whole workload is submitted before draining, so the pending
     queue must hold it (the default limit is 64k) *)
  let eng =
    Engine.create ~policy:online_policy ~queue_limit:(List.length tasks + 1) ~capacity ()
  in
  List.iteri
    (fun i task ->
      match Engine.submit eng ~arrival:(float_of_int i *. spacing) task with
      | Engine.Accepted -> ()
      | _ -> failwith "core bench: submission rejected")
    tasks;
  ignore (Engine.drain eng);
  Engine.makespan eng

let online_before ~capacity ~spacing tasks =
  let eng = Reference.Eng.create ~policy:online_policy ~capacity () in
  List.iteri
    (fun i task -> Reference.Eng.submit eng ~arrival:(float_of_int i *. spacing) task)
    tasks;
  Schedule.makespan (Reference.Eng.drain eng)

let cached_reuse = 4.0
let cached_before_cap = 5_000

let cached_run ?(policy = Residency.Lru) run n =
  let instance, _ = Reuse.instance ~n cached_reuse in
  fun () ->
    let sched, stats = run ~policy Dynamic_rules.SCMR instance in
    (Schedule.makespan sched, stats)

let cached_after ?policy = cached_run ?policy (fun ~policy c i -> Cached_rules.run ~policy c i)
let cached_before = cached_run (fun ~policy c i -> Reference.Cached.run ~policy c i)

(* Least-squares slope of log t over log n: the empirical scaling
   exponent. *)
let fit_exponent points =
  let pts = List.filter (fun (_, t) -> t > 0.0) points in
  match pts with
  | [] | [ _ ] -> nan
  | _ ->
      let k = float_of_int (List.length pts) in
      let xs = List.map (fun (n, _) -> log (float_of_int n)) pts in
      let ys = List.map (fun (_, t) -> log t) pts in
      let sx = List.fold_left ( +. ) 0.0 xs and sy = List.fold_left ( +. ) 0.0 ys in
      let sxx = List.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
      let sxy = List.fold_left2 (fun a x y -> a +. (x *. y)) 0.0 xs ys in
      (sxy -. (sx *. sy /. k)) /. (sxx -. (sx *. sx /. k))

type point = {
  n : int;
  offline_before_s : float option;
  offline_after_s : float;
  online_before_s : float option;
  online_after_s : float;
  cached_before_s : float option;
  cached_after_s : float;
}

let measure ~before_cap n =
  let tasks = make_tasks n in
  let capacity = capacity_for tasks in
  let instance = Instance.make ~capacity tasks in
  let spacing = mean_comm tasks /. 2.0 in
  let reps = reps_for n in
  let after_ms, offline_after_s = best_of reps (fun () -> offline_after instance) in
  let online_after_m, online_after_s =
    best_of reps (fun () -> online_after ~capacity ~spacing tasks)
  in
  let offline_before_s, online_before_s =
    if n > before_cap then (None, None)
    else begin
      (* the quadratic code takes minutes per run past 20k tasks *)
      let breps = if n <= 5_000 then 3 else 1 in
      let before_ms, ob = best_of breps (fun () -> offline_before instance) in
      let online_before_m, nb =
        best_of breps (fun () -> online_before ~capacity ~spacing tasks)
      in
      (* the rewrite must not just be faster — it must compute the same
         schedules (the test suite pins full bit-identity; this is the
         cheap in-bench guard) *)
      if not (List.for_all2 ( = ) after_ms before_ms) then
        failwith "core bench: offline makespans diverged from the frozen reference";
      if online_after_m <> online_before_m then
        failwith "core bench: online makespan diverged from the frozen reference";
      (Some ob, Some nb)
    end
  in
  let cached_after_r, cached_after_s = best_of reps (cached_after n) in
  let cached_before_s =
    if n > Int.min before_cap cached_before_cap then None
    else begin
      (* one run: the list scan takes seconds at 5k tasks *)
      let before_r, cb = best_of (if n <= 1_000 then 3 else 1) (cached_before n) in
      if cached_after_r <> before_r then
        failwith "core bench: cached makespan or cache stats diverged from the frozen reference";
      Some cb
    end
  in
  let pp_opt = function Some s -> Printf.sprintf "%.3fs" s | None -> "(skip)" in
  Printf.printf "  n=%-6d offline %s -> %.3fs   online %s -> %.3fs   cached %s -> %.3fs\n%!"
    n (pp_opt offline_before_s) offline_after_s (pp_opt online_before_s) online_after_s
    (pp_opt cached_before_s) cached_after_s;
  {
    n;
    offline_before_s;
    offline_after_s;
    online_before_s;
    online_after_s;
    cached_before_s;
    cached_after_s;
  }

let speedup_at points get_before get_after =
  List.fold_left
    (fun acc p ->
      match get_before p with
      | Some b when get_after p > 0.0 -> Some (p.n, b /. get_after p)
      | _ -> acc)
    None points

let json_opt = function None -> "null" | Some s -> Printf.sprintf "%.6f" s

let run () =
  Printf.printf "\n== core: decision-loop complexity sweep (before vs after) ==\n\n";
  let sizes =
    if Data.fast then [ 1_000; 5_000 ] else [ 1_000; 5_000; 20_000; 50_000; 100_000 ]
  in
  let before_cap = if Data.fast then max_int else 50_000 in
  let points = List.map (measure ~before_cap) sizes in
  let exp_offline =
    fit_exponent (List.map (fun p -> (p.n, p.offline_after_s)) points)
  in
  let exp_online = fit_exponent (List.map (fun p -> (p.n, p.online_after_s)) points) in
  let exp_cached = fit_exponent (List.map (fun p -> (p.n, p.cached_after_s)) points) in
  let sp_offline = speedup_at points (fun p -> p.offline_before_s) (fun p -> p.offline_after_s) in
  let sp_online = speedup_at points (fun p -> p.online_before_s) (fun p -> p.online_after_s) in
  let sp_cached = speedup_at points (fun p -> p.cached_before_s) (fun p -> p.cached_after_s) in
  let pp_speedup = function
    | Some (n, f) -> Printf.sprintf "%.1fx at n=%d" f n
    | None -> "-"
  in
  Printf.printf
    "\nfitted exponent (after): offline %.2f, online %.2f, cached %.2f; speedup: offline \
     %s, online %s, cached %s\n"
    exp_offline exp_online exp_cached (pp_speedup sp_offline) (pp_speedup sp_online)
    (pp_speedup sp_cached);
  Provenance.write_artifact ~path:"BENCH_core.json" ~experiment:"core-scaling"
    (fun oc ->
      Reuse.fields oc;
      Printf.fprintf oc
        "  \"fast_mode\": %b,\n  \"offline_policies\": %d,\n\
        \  \"online_policy\": \"%s\",\n  \"arrival_load\": 2.0,\n\
        \  \"cached_policy\": \"%s\",\n  \"cached_reuse_factor\": %.1f,\n  \"points\": [\n"
        Data.fast
        (List.length offline_policies)
        (Engine.policy_name online_policy)
        (Cached_rules.name Residency.Lru Dynamic_rules.SCMR)
        cached_reuse;
      let last = List.length points - 1 in
      List.iteri
        (fun i p ->
          Printf.fprintf oc
            "    { \"n\": %d, \"offline_before_s\": %s, \"offline_after_s\": %.6f, \
             \"online_before_s\": %s, \"online_after_s\": %.6f, \
             \"cached_before_s\": %s, \"cached_after_s\": %.6f }%s\n"
            p.n (json_opt p.offline_before_s) p.offline_after_s
            (json_opt p.online_before_s) p.online_after_s
            (json_opt p.cached_before_s) p.cached_after_s
            (if i = last then "" else ","))
        points;
      let pp_speedup_json oc = function
        | Some (n, f) -> Printf.fprintf oc "{ \"n\": %d, \"factor\": %.2f }" n f
        | None -> output_string oc "null"
      in
      Printf.fprintf oc
        "  ],\n  \"fitted_exponent_after\": { \"offline\": %.3f, \"online\": %.3f, \
         \"cached\": %.3f },\n"
        exp_offline exp_online exp_cached;
      Printf.fprintf oc
        "  \"speedup\": { \"offline\": %a, \"online\": %a, \"cached\": %a }\n"
        pp_speedup_json sp_offline pp_speedup_json sp_online pp_speedup_json sp_cached)

(* Minor words per task allowed to each decision loop on the smoke
   instance. The candidate index allocates only an id-table entry per
   never-seen task, so a loop reads ~60-150 (the simulator's entries,
   the schedule, the index's selections); a path-copying index reads
   1,400-1,500. A count, not a timing: host noise can neither pass nor
   fail it. *)
let alloc_budget = 400.0

(* The same for the cached loop (SCMR under both eviction policies) on
   the 5k reuse stream. Its warm pass allocates nothing, so it reads
   ~210: the cached simulator's events, slot arrays and eviction stamps
   on top of the flat loop's (~320 before the loop read tile state by
   slot and made one index select per decision); the list scan of the
   warm set it replaced read 1,774 (min-refetch) and 2,762 (lru). *)
let cached_alloc_budget = 600.0

(* One run of [f]: its minor words per task, the minor collections it
   made, and the number its allocation alone explains, ceil(words / minor
   heap size). Collections above that were forced, e.g. by [Array.make]
   seeding a large array with a young block, or by the remembered set
   filling up. *)
let alloc_of_run n f =
  let c0 = (Gc.quick_stat ()).Gc.minor_collections and w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let words = Gc.minor_words () -. w0 in
  let collections = (Gc.quick_stat ()).Gc.minor_collections - c0 in
  let heap = float_of_int (Gc.get ()).Gc.minor_heap_size in
  (words /. float_of_int n, collections, int_of_float (Float.ceil (words /. heap)))

(* CI tripwire: 5k tasks through the full offline sweep plus the online
   drain, and 5k through the cached loop, each under a wall-clock budget
   the quadratic code cannot meet; then the allocation budget. *)
let smoke () =
  let budget =
    match Sys.getenv_opt "DTSCHED_SMOKE_BUDGET" with
    | Some s -> (match float_of_string_opt s with Some v when v > 0.0 -> v | _ -> 2.0)
    | None -> 2.0
  in
  let n = 5_000 in
  let tasks = make_tasks n in
  let capacity = capacity_for tasks in
  let instance = Instance.make ~capacity tasks in
  let spacing = mean_comm tasks /. 2.0 in
  let (_ : float list * float), elapsed =
    wall (fun () ->
        (offline_after instance, online_after ~capacity ~spacing tasks))
  in
  let verdict elapsed = if elapsed <= budget then "PASS" else "FAIL" in
  Printf.printf
    "core-smoke: %d-task offline sweep + online drain in %.3fs (budget %.1fs): %s\n%!"
    n elapsed budget (verdict elapsed);
  let run_cached = cached_after n in
  let _, cached_elapsed = wall run_cached in
  Printf.printf "core-smoke: %d-task cached %s at R=%g in %.3fs (budget %.1fs): %s\n" n
    (Cached_rules.name Residency.Lru Dynamic_rules.SCMR)
    cached_reuse cached_elapsed budget (verdict cached_elapsed);
  let runs =
    List.map (fun p -> (offline_name p, alloc_of_run n (fun () -> offline_run p instance)))
      offline_policies
    @ [
        ( Engine.policy_name online_policy ^ " online",
          alloc_of_run n (fun () -> online_after ~capacity ~spacing tasks) );
      ]
  in
  let cached_runs =
    List.map
      (fun policy ->
        ( Cached_rules.name policy Dynamic_rules.SCMR,
          alloc_of_run n (cached_after ~policy n) ))
      Residency.all_policies
  in
  let over budget runs = List.filter (fun (_, (w, _, _)) -> w > budget) runs in
  let line f runs = String.concat ", " (List.map (fun (name, r) -> name ^ " " ^ f r) runs) in
  let words_line what budget runs =
    Printf.printf "core-smoke: %s per task (budget %.0f): %s: %s\n" what budget
      (line (fun (w, _, _) -> Printf.sprintf "%.0f" w) runs)
      (if over budget runs = [] then "PASS" else "FAIL")
  in
  words_line "minor words" alloc_budget runs;
  words_line "cached minor words" cached_alloc_budget cached_runs;
  Printf.printf "core-smoke: minor collections per run (by allocation alone): %s\n"
    (line (fun (_, c, explained) -> Printf.sprintf "%d (%d)" c explained) (runs @ cached_runs));
  if
    elapsed > budget || cached_elapsed > budget
    || over alloc_budget runs <> []
    || over cached_alloc_budget cached_runs <> []
  then exit 1
