(* Extensions beyond the paper's core: lower bounds, automatic strategy
   selection, and the 3-machine (output data) pipeline. *)

open Dt_core

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------- bounds ------------------------------ *)

let memory_area_binding () =
  (* two tasks of mem 4 each, comm 2, comp 2: with C = 4 the memory bound
     gives 2 * 4 * 4 / 4 = 8 > area bound 4 *)
  let i =
    Instance.make ~capacity:4.0
      [
        Task.make ~id:0 ~comm:2.0 ~comp:2.0 ~mem:4.0 ();
        Task.make ~id:1 ~comm:2.0 ~comp:2.0 ~mem:4.0 ();
      ]
  in
  check_float "area" 4.0 (Bounds.area i);
  check_float "memory area" 8.0 (Bounds.memory_area i);
  check_float "best picks it" 8.0 (Bounds.best i);
  (* and it is achieved: the tasks must fully serialise *)
  let s = Sim.run_order_exn ~capacity:4.0 (Instance.task_list i) in
  check_float "achieved" 8.0 (Schedule.makespan s)

let prop_bounds_valid =
  Generators.prop_test ~count:200 ~name:"every bound <= every heuristic makespan"
    (Generators.instance_gen ~min_size:1 ~max_size:8 ())
    (fun instance ->
      let bound = Bounds.best instance in
      List.for_all
        (fun h -> Schedule.makespan (Heuristic.run h instance) >= bound -. 1e-9)
        Heuristic.all)

let prop_bounds_valid_exact =
  Generators.prop_test ~count:60 ~name:"best bound <= exact optimum"
    (Generators.instance_gen ~min_size:1 ~max_size:6 ())
    (fun instance ->
      Schedule.makespan (Exact.best_same_order instance) >= Bounds.best instance -. 1e-9)

(* -------------------------------- auto ------------------------------- *)

let auto_picks_winner () =
  let i = Examples.table4 in
  let h, sched = Auto.select i in
  let portfolio_best =
    List.fold_left
      (fun acc h -> Float.min acc (Schedule.makespan (Heuristic.run h i)))
      Float.infinity Auto.default_portfolio
  in
  check_float "best makespan" portfolio_best (Schedule.makespan sched);
  Alcotest.(check bool) "winner achieves it" true
    (Schedule.makespan (Heuristic.run h i) = Schedule.makespan sched)

let prop_auto_dominates =
  Generators.prop_test ~count:100 ~name:"auto <= every portfolio member"
    (Generators.instance_gen ~min_size:1 ~max_size:8 ())
    (fun instance ->
      let best = Schedule.makespan (Auto.run instance) in
      List.for_all
        (fun h -> Schedule.makespan (Heuristic.run h instance) >= best -. 1e-9)
        Auto.default_portfolio)

(* ------------------------------ flowshop3 ---------------------------- *)

let t3 ~id ~input ~comp ~output = Flowshop3.task ~id ~input ~comp ~output ()

let pipeline_basics () =
  let tasks = [ t3 ~id:0 ~input:2.0 ~comp:3.0 ~output:1.0 ] in
  let entries = Flowshop3.run_order tasks in
  check_float "makespan" 6.0 (Flowshop3.makespan entries);
  Alcotest.(check bool) "valid" true (Flowshop3.check ~capacity:Float.infinity entries = Ok ())

let pipeline_overlap () =
  (* two identical tasks pipeline: 2 + 3 + 3 + 1 = 9 *)
  let tasks =
    [ t3 ~id:0 ~input:2.0 ~comp:3.0 ~output:1.0; t3 ~id:1 ~input:2.0 ~comp:3.0 ~output:1.0 ]
  in
  let entries = Flowshop3.run_order tasks in
  check_float "pipelined makespan" 9.0 (Flowshop3.makespan entries)

let memory_constrains_pipeline () =
  (* input buffers of 2 each, capacity 3: the second input transfer must
     wait for the first computation to end *)
  let tasks =
    [ t3 ~id:0 ~input:2.0 ~comp:3.0 ~output:1.0; t3 ~id:1 ~input:2.0 ~comp:3.0 ~output:1.0 ]
  in
  let free = Flowshop3.run_order ~capacity:100.0 tasks in
  let tight = Flowshop3.run_order ~capacity:3.0 tasks in
  Alcotest.(check bool) "tight is slower" true
    (Flowshop3.makespan tight > Flowshop3.makespan free +. 1e-9);
  Alcotest.(check bool) "tight valid" true (Flowshop3.check ~capacity:3.0 tight = Ok ());
  Alcotest.check_raises "oversized task"
    (Invalid_argument "Flowshop3.run_order: task 0 needs 3 > capacity 2") (fun () ->
      ignore (Flowshop3.run_order ~capacity:2.0 tasks))

let johnson3_rule () =
  (* dominated middle stage: min input >= max comp, so the aggregated rule
     is optimal; verify against brute force *)
  let rng = Dt_stats.Rng.create 21 in
  for _ = 1 to 50 do
    let n = 2 + Dt_stats.Rng.int rng 4 in
    let tasks =
      List.init n (fun id ->
          t3 ~id
            ~input:(4.0 +. Dt_stats.Rng.float rng 4.0)
            ~comp:(Dt_stats.Rng.float rng 4.0)
            ~output:(Dt_stats.Rng.float rng 8.0))
    in
    let johnson = Flowshop3.makespan (Flowshop3.run_order (Flowshop3.johnson_order tasks)) in
    let best = ref Float.infinity in
    Exact.iter_permutations (Array.of_list tasks) (fun perm ->
        let mk = Flowshop3.makespan (Flowshop3.run_order (Array.to_list perm)) in
        if mk < !best then best := mk);
    if Float.abs (johnson -. !best) > 1e-9 then
      Alcotest.failf "johnson %g vs optimal %g" johnson !best
  done

let prop_flowshop3_structure =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 7 in
      list_repeat n
        (triple (int_range 0 10) (int_range 0 10) (int_range 0 10)))
  in
  let print l = Fmt.str "%a" Fmt.(Dump.list (Dump.pair int (Dump.pair int int)))
      (List.map (fun (a, b, c) -> (a, (b, c))) l)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"flowshop3 eager schedules are valid" ~print gen
       (fun specs ->
         let tasks =
           List.mapi
             (fun id (a, b, c) ->
               t3 ~id ~input:(float_of_int a) ~comp:(float_of_int b) ~output:(float_of_int c))
             specs
         in
         let m_c =
           List.fold_left
             (fun acc (t : Flowshop3.task) ->
               Float.max acc (t.Flowshop3.mem_in +. t.Flowshop3.mem_out))
             1.0 tasks
         in
         let entries = Flowshop3.run_order ~capacity:(m_c *. 1.5) tasks in
         match Flowshop3.check ~capacity:(m_c *. 1.5) entries with
         | Ok () -> Flowshop3.makespan entries >= Flowshop3.lower_bound tasks -. 1e-9
         | Error msg -> QCheck2.Test.fail_reportf "invalid: %s" msg))

let suite =
  [
    Alcotest.test_case "memory-area bound binds" `Quick memory_area_binding;
    prop_bounds_valid;
    prop_bounds_valid_exact;
    Alcotest.test_case "auto picks the winner" `Quick auto_picks_winner;
    prop_auto_dominates;
    Alcotest.test_case "3-stage pipeline basics" `Quick pipeline_basics;
    Alcotest.test_case "3-stage pipelining" `Quick pipeline_overlap;
    Alcotest.test_case "3-stage memory pressure" `Quick memory_constrains_pipeline;
    Alcotest.test_case "Johnson-3 optimal under dominance" `Slow johnson3_rule;
    prop_flowshop3_structure;
  ]

(* ----------------------------- local search -------------------------- *)

let prop_local_search_never_worse =
  Generators.prop_test ~count:80 ~name:"local search never hurts any heuristic"
    (Generators.instance_gen ~min_size:1 ~max_size:7 ())
    (fun instance ->
      List.for_all
        (fun h ->
          let base = Schedule.makespan (Heuristic.run h instance) in
          let polished = Local_search.polish h instance in
          Generators.check_feasible "polish" instance polished
          && Schedule.makespan polished <= base +. 1e-9)
        Heuristic.all)

let prop_local_search_bounded_by_exact =
  Generators.prop_test ~count:40 ~name:"polished OOSIM between exact and OMIM bounds"
    (Generators.instance_gen ~min_size:1 ~max_size:6 ())
    (fun instance ->
      let exact = Schedule.makespan (Exact.best_same_order instance) in
      let polished =
        Schedule.makespan (Local_search.polish (Heuristic.Static Static_rules.OOSIM) instance)
      in
      polished >= exact -. 1e-9)

let local_search_improves_a_bad_order () =
  (* submission order is poor on Table 5 at capacity 9; hill climbing on
     swaps must find something at least as good *)
  let i = Examples.table5 in
  let base = Schedule.makespan (Static_rules.run Static_rules.OS i) in
  let order, mk = Local_search.improve ~capacity:9.0 (Instance.task_list i) in
  Alcotest.(check int) "permutation" 5 (List.length order);
  Alcotest.(check bool) "no worse" true (mk <= base +. 1e-9)

let suite =
  suite
  @ [
      prop_local_search_never_worse;
      prop_local_search_bounded_by_exact;
      Alcotest.test_case "local search improves a bad order" `Quick
        local_search_improves_a_bad_order;
    ]

(* ------------------------------- advisor ----------------------------- *)

let advisor_regimes () =
  let tasks = [ Task.make ~id:0 ~comm:2.0 ~comp:4.0 (); Task.make ~id:1 ~comm:3.0 ~comp:1.0 () ] in
  let big = Instance.make ~capacity:1000.0 tasks in
  let d = Advisor.diagnose big in
  Alcotest.(check bool) "unconstrained" true (d.Advisor.regime = Advisor.Unconstrained);
  Alcotest.(check string) "optimal order" "OOSIM" (Heuristic.name d.Advisor.recommendation);
  (* six compute-heavy pipeline tasks: the OMIM schedule accumulates a
     deep backlog, so a capacity of 1.5 is far below its peak *)
  let pipeline =
    Instance.make ~capacity:1.5
      (List.init 6 (fun i -> Task.make ~id:i ~comm:1.0 ~comp:6.0 ()))
  in
  let d = Advisor.diagnose pipeline in
  Alcotest.(check bool) "limited" true (d.Advisor.regime = Advisor.Limited);
  Alcotest.(check bool) "dynamic family" true
    (Heuristic.category d.Advisor.recommendation = Heuristic.Dynamic_selection);
  let moderate = Instance.with_capacity pipeline (0.8 *. d.Advisor.omim_peak_memory) in
  Alcotest.(check bool) "moderate regime" true
    ((Advisor.diagnose moderate).Advisor.regime = Advisor.Moderate);
  Alcotest.(check bool) "corrected family" true
    (Heuristic.category (Advisor.recommend moderate) = Heuristic.Corrected_order)

let advisor_mix () =
  let compute_heavy =
    Instance.make ~capacity:1e9
      (List.init 10 (fun i -> Task.make ~id:i ~comm:1.0 ~comp:5.0 ()))
  in
  Alcotest.(check string) "IOCMS for compute-heavy" "IOCMS"
    (Heuristic.name (Advisor.recommend compute_heavy));
  let comm_heavy =
    Instance.make ~capacity:1e9
      (List.init 10 (fun i -> Task.make ~id:i ~comm:5.0 ~comp:1.0 ()))
  in
  Alcotest.(check string) "DOCPS for comm-heavy" "DOCPS"
    (Heuristic.name (Advisor.recommend comm_heavy));
  let explain = Advisor.explain (Advisor.diagnose comm_heavy) in
  Alcotest.(check bool) "explanation mentions the pick" true
    (String.length explain > 0)

let prop_advisor_total =
  Generators.prop_test ~count:150 ~name:"advisor always recommends a runnable heuristic"
    (Generators.instance_gen ~min_size:1 ~max_size:8 ())
    (fun instance ->
      let h = Advisor.recommend instance in
      let s = Heuristic.run h instance in
      Generators.check_feasible "advisor pick" instance s)

let suite =
  suite
  @ [
      Alcotest.test_case "advisor regimes" `Quick advisor_regimes;
      Alcotest.test_case "advisor mix" `Quick advisor_mix;
      prop_advisor_total;
    ]

(* On one task every heuristic reaches the same makespan, so the first
   candidate in list order must win. *)
let auto_tie_keeps_first () =
  let i = Instance.make ~capacity:2.0 [ Task.make ~id:0 ~comm:1.0 ~comp:1.0 () ] in
  let winner candidates = Heuristic.name (fst (Auto.select ~candidates i)) in
  Alcotest.(check string) "BP first" "BP"
    (winner [ Heuristic.Bp; Heuristic.Gg; Heuristic.Static Static_rules.OS ]);
  Alcotest.(check string) "GG first" "GG"
    (winner [ Heuristic.Gg; Heuristic.Bp; Heuristic.Static Static_rules.OS ])

let suite =
  suite
  @ [ Alcotest.test_case "auto tie keeps the first candidate" `Quick auto_tie_keeps_first ]
