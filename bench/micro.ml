(* Bechamel micro-benchmarks: scheduling cost of the heuristics
   themselves as the task count grows (the "runtime overhead" a runtime
   system would pay), one Test.make per heuristic family. *)

open Bechamel
open Toolkit

let instance_of_size n =
  let rng = Dt_stats.Rng.create (n * 17) in
  let tasks =
    List.init n (fun i ->
        Dt_core.Task.make ~id:i
          ~comm:(Dt_stats.Rng.uniform rng 0.5 8.0)
          ~comp:(Dt_stats.Rng.uniform rng 0.5 8.0)
          ())
  in
  let m_c = List.fold_left (fun a (t : Dt_core.Task.t) -> Float.max a t.Dt_core.Task.mem) 1.0 tasks in
  Dt_core.Instance.make ~capacity:(1.5 *. m_c) tasks

let test_of_heuristic h =
  Test.make_indexed ~name:(Dt_core.Heuristic.name h) ~args:[ 50; 200; 800 ] (fun n ->
      let instance = instance_of_size n in
      Staged.stage (fun () -> ignore (Dt_core.Heuristic.run h instance)))

let representatives =
  Dt_core.Heuristic.
    [
      Static Dt_core.Static_rules.OOSIM;
      Gg;
      Bp;
      Dynamic Dt_core.Dynamic_rules.MAMR;
      Corrected Dt_core.Corrected_rules.OOSCMR;
    ]

(* Simulator and polishing hot paths, benchmarked directly: the dual-order
   executor backs the exact solver and the MILP decoder, and the adjacent-swap
   local search re-simulates orders in its inner loop. *)
let test_two_orders =
  Test.make_indexed ~name:"sim/two-orders" ~args:[ 200; 800; 2000 ] (fun n ->
      let instance = instance_of_size n in
      let tasks = Dt_core.Instance.task_list instance in
      let capacity = instance.Dt_core.Instance.capacity in
      Staged.stage (fun () ->
          match Dt_core.Sim.run_two_orders ~capacity ~comm_order:tasks tasks with
          | Ok _ -> ()
          | Error _ -> assert false))

let test_local_search =
  Test.make_indexed ~name:"search/improve" ~args:[ 20; 60; 150 ] (fun n ->
      let instance = instance_of_size n in
      let tasks = Dt_core.Instance.task_list instance in
      let capacity = instance.Dt_core.Instance.capacity in
      Staged.stage (fun () ->
          ignore (Dt_core.Local_search.improve ~max_rounds:2 ~capacity tasks)))

(* The candidate index alone. [drain]: a bulk add (one rebuild), then n
   decisions, each a select under a memory level that leaves part of the
   index out (the fit binds; the filter does not, the CPU being busy
   long after [now]) and the removal of the winner, the criterion
   cycling through LCMR, SCMR and MAMR. Runs alternate between two
   physically distinct copies of the tasks, so that every rebuild sorts,
   as a served session's first DRAIN does. [interleaved]: the Engine's
   pattern, n/2 tasks added and the other n/2 reserved, then one arrival
   per decision. [portfolio]: the index calls of the six indexed rules
   on one n-task instance, recorded once and replayed back to back, as
   [Auto.select] makes them through [Greedy]: a bulk load, then per
   decision the static head (Johnson's order for the three corrected
   rules, none for the dynamic ones), a select when the head is absent or
   does not fit, and the removal of the winner. *)
let candidates_select idx k ~mean_mem =
  let crit = List.nth Dt_core.Dynamic_rules.all (k mod 3) in
  let select ~used ~kcap =
    Dt_core.Candidates.select idx crit ~used ~kcap ~cpu_free:1e9 ~now:0.0
  in
  match select ~used:(float_of_int (k mod 4) *. mean_mem /. 2.0) ~kcap:(2.0 *. mean_mem) with
  | Some _ as winner -> winner
  | None -> select ~used:0.0 ~kcap:Float.infinity

let candidates_tasks n =
  let tasks = Dt_core.Instance.task_list (instance_of_size n) in
  let mean_mem =
    List.fold_left (fun a (t : Dt_core.Task.t) -> a +. t.Dt_core.Task.mem) 0.0 tasks
    /. float_of_int n
  in
  (tasks, mean_mem)

(* The same tasks in physically new records: a memo miss for the index. *)
let physical_copy tasks =
  List.map (fun (t : Dt_core.Task.t) -> Dt_core.Task.with_id t t.Dt_core.Task.id) tasks

let test_candidates_drain =
  Test.make_indexed ~name:"drain" ~args:[ 200; 800; 5_000 ] (fun n ->
      let tasks, mean_mem = candidates_tasks n in
      let copies = [| tasks; physical_copy tasks |] in
      let run = ref 0 in
      Staged.stage (fun () ->
          incr run;
          let idx = Dt_core.Candidates.create () in
          List.iter (Dt_core.Candidates.add idx) copies.(!run land 1);
          for k = 0 to n - 1 do
            match candidates_select idx k ~mean_mem with
            | Some t -> Dt_core.Candidates.remove idx t
            | None -> assert false
          done;
          Dt_core.Candidates.release idx))

let test_candidates_interleaved =
  Test.make_indexed ~name:"interleaved" ~args:[ 800 ] (fun n ->
      let tasks, mean_mem = candidates_tasks n in
      let first, rest = List.partition (fun (t : Dt_core.Task.t) -> t.Dt_core.Task.id < n / 2) tasks in
      Staged.stage (fun () ->
          let idx = Dt_core.Candidates.create () in
          List.iter (Dt_core.Candidates.add idx) first;
          List.iter (Dt_core.Candidates.reserve idx) rest;
          List.iteri
            (fun k t ->
              Dt_core.Candidates.add idx t;
              match candidates_select idx k ~mean_mem with
              | Some t -> Dt_core.Candidates.remove idx t
              | None -> assert false)
            rest;
          Dt_core.Candidates.release idx))

type call =
  | Load of Dt_core.Task.t list
  | Static_head
  | Select of Dt_core.Candidates.criterion * float * float * float * float
  | Remove of Dt_core.Task.t

(* The index calls of an offline run of a dynamic rule, or of a corrected
   one given its static order: Greedy's loop, on the simulator. *)
let record ?static crit (i : Dt_core.Instance.t) =
  let open Dt_core in
  let capacity = i.Instance.capacity in
  let kcap = capacity *. (1.0 +. 1e-12) and tasks = Instance.task_list i in
  let st = Sim.initial_state () and idx = Candidates.create ?static () and calls = ref [] in
  let log c = calls := c :: !calls in
  log (Load tasks);
  Candidates.load idx tasks;
  let select used =
    let cpu_free = Sim.cpu_free_time st and now = Sim.link_free_time st in
    log (Select (crit, used, kcap, cpu_free, now));
    Candidates.select idx crit ~used ~kcap ~cpu_free ~now
  in
  while Candidates.size idx > 0 do
    Sim.settle st;
    let used = Sim.memory_in_use st in
    log Static_head;
    let choice =
      match Candidates.static_head idx with
      | Some (x : Task.t) when used +. x.Task.mem <= kcap -> Some x
      | _ -> select used
    in
    match choice with
    | Some t ->
        log (Remove t);
        Candidates.remove idx t;
        ignore (Sim.schedule_task st ~capacity t)
    | None -> assert (Sim.advance_to_next_release st)
  done;
  Candidates.release idx;
  (static, List.rev !calls)

let replay (static, calls) =
  let idx = Dt_core.Candidates.create ?static () in
  List.iter
    (function
      | Load tasks -> Dt_core.Candidates.load idx tasks
      | Static_head -> ignore (Dt_core.Candidates.static_head idx)
      | Select (crit, used, kcap, cpu_free, now) ->
          ignore (Dt_core.Candidates.select idx crit ~used ~kcap ~cpu_free ~now)
      | Remove t -> Dt_core.Candidates.remove idx t)
    calls;
  Dt_core.Candidates.release idx

(* Runs alternate between two physically distinct copies of the
   instance, so that each run's first rule sorts and the other five
   reuse its layout, and its first corrected rule sorts Johnson's order
   for the other two. *)
let test_candidates_portfolio =
  Test.make_indexed ~name:"portfolio" ~args:[ 800 ] (fun n ->
      let i = instance_of_size n in
      let copy =
        Dt_core.Instance.make_keep_ids ~capacity:i.Dt_core.Instance.capacity
          (physical_copy (Dt_core.Instance.task_list i))
      in
      let calls i =
        List.map (fun c -> record c i) Dt_core.Dynamic_rules.all
        @ List.map
            (fun r ->
              record ~static:Dt_core.Candidates.Johnson (Dt_core.Corrected_rules.criterion r) i)
            Dt_core.Corrected_rules.all
      in
      let runs = [| calls i; calls copy |] and run = ref 0 in
      Staged.stage (fun () ->
          incr run;
          List.iter replay runs.(!run land 1)))

(* The residency set alone: with r unpinned tiles resident, one run
   admits a tile (touch, a miss), unpins it and evicts the policy's
   victim, so r tiles stay resident. The set serves r + 1 one-tile
   tasks, admitted in turn, so the victim is always the tile admitted
   longest ago, the next to come round: every admit misses. The
   cached-ccsd pass holds ~160. *)
let test_residency_evict =
  Test.make_indexed ~name:"evict" ~args:[ 160; 2_000 ] (fun r ->
      let tasks =
        Array.init (r + 1) (fun tile ->
            Dt_core.Task.make ~id:tile ~comm:1.0 ~comp:1.0 ~mem:1.0
              ~tiles:[ { Dt_core.Task.tile; t_comm = 1.0; t_mem = 1.0 } ]
              ())
      in
      let res = Dt_core.Residency.create tasks and next = ref 0 in
      let slot = (Dt_core.Residency.refs res).Dt_core.Residency.slot in
      let admit () =
        let j = !next in
        next := (j + 1) mod (r + 1);
        ignore (Dt_core.Residency.touch res j);
        Dt_core.Residency.unpin res slot.(j)
      in
      for _ = 1 to r do
        admit ()
      done;
      Staged.stage (fun () ->
          admit ();
          let s = Dt_core.Residency.victim res in
          assert (s >= 0);
          Dt_core.Residency.evict res s))

(* The cached decision loop whole: [Cached_rules.run] SCMR+lru on the
   reuse sweep's task stream at core-smoke's reuse factor (4), n = 800:
   the warm pass, the index select and the executor together. *)
let test_cached_run =
  Test.make_indexed ~name:"run" ~args:[ 800 ] (fun n ->
      let instance, _ = Reuse.instance ~n Core_scaling.cached_reuse in
      Staged.stage (fun () ->
          ignore
            (Dt_core.Cached_rules.run ~policy:Dt_core.Residency.Lru Dt_core.Dynamic_rules.SCMR
               instance)))

let run () =
  Printf.printf "\n== micro: heuristic scheduling cost (bechamel) ==\n\n";
  let tests =
    Test.make_grouped ~name:"" ~fmt:"%s%s"
      [
        Test.make_grouped ~name:"heuristics"
          (List.map test_of_heuristic representatives
          @ [ test_two_orders; test_local_search ]);
        Test.make_grouped ~name:"candidates"
          [ test_candidates_drain; test_candidates_interleaved; test_candidates_portfolio ];
        Test.make_grouped ~name:"residency" [ test_residency_evict ];
        Test.make_grouped ~name:"cached" [ test_cached_run ];
      ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some [ v ] -> v | Some _ | None -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
  Dt_report.Table.print ~header:[ "benchmark"; "time per run" ]
    (List.map
       (fun (name, ns) ->
         [
           name;
           (if Float.is_nan ns then "n/a"
            else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else Printf.sprintf "%.1f us" (ns /. 1e3));
         ])
       rows)
