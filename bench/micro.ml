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
   cycling through LCMR, SCMR and MAMR. [interleaved]: an index of n/2
   tasks fed one task per decision (one-by-one inserts), as online
   arrivals between decisions are. *)
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

let test_candidates_drain =
  Test.make_indexed ~name:"drain" ~args:[ 200; 800; 5_000 ] (fun n ->
      let tasks, mean_mem = candidates_tasks n in
      Staged.stage (fun () ->
          let idx = Dt_core.Candidates.create () in
          List.iter (Dt_core.Candidates.add idx) tasks;
          for k = 0 to n - 1 do
            match candidates_select idx k ~mean_mem with
            | Some t -> Dt_core.Candidates.remove idx t
            | None -> assert false
          done))

let test_candidates_interleaved =
  Test.make_indexed ~name:"interleaved" ~args:[ 800 ] (fun n ->
      let tasks, mean_mem = candidates_tasks n in
      let first, rest = List.partition (fun (t : Dt_core.Task.t) -> t.Dt_core.Task.id < n / 2) tasks in
      Staged.stage (fun () ->
          let idx = Dt_core.Candidates.create () in
          List.iter (Dt_core.Candidates.add idx) first;
          List.iteri
            (fun k t ->
              Dt_core.Candidates.add idx t;
              match candidates_select idx k ~mean_mem with
              | Some t -> Dt_core.Candidates.remove idx t
              | None -> assert false)
            rest))

let run () =
  Printf.printf "\n== micro: heuristic scheduling cost (bechamel) ==\n\n";
  let tests =
    Test.make_grouped ~name:"" ~fmt:"%s%s"
      [
        Test.make_grouped ~name:"heuristics"
          (List.map test_of_heuristic representatives
          @ [ test_two_orders; test_local_search ]);
        Test.make_grouped ~name:"candidates"
          [ test_candidates_drain; test_candidates_interleaved ];
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
