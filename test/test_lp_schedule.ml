(* The MILP formulation of Section 4.5 and the iterative lp.k heuristic. *)

open Dt_core

let check_float = Alcotest.(check (float 1e-6))

let tiny =
  Instance.of_triples ~capacity:4.0 [ (3.0, 1.0); (2.0, 3.0); (1.0, 2.0) ]

let chunk_solves_tiny_exactly () =
  match
    Lp_schedule.solve_chunk ~boundary:Lp_schedule.initial_boundary
      ~capacity:tiny.Instance.capacity (Instance.task_list tiny)
  with
  | None -> Alcotest.fail "MILP found nothing (incumbent should not block optimum)"
  | Some entries ->
      let s = Schedule.make ~capacity:tiny.Instance.capacity entries in
      Alcotest.(check bool) "valid" true (Schedule.check s = Ok ());
      let exact = Schedule.makespan (Exact.best_free_order tiny) in
      check_float "matches exact free-order optimum" exact (Schedule.makespan s)

(* Two computations start at the same instant here (task 2's is
   zero-length), so sorting by the float start times may swap them; the
   decoded schedule must keep the MILP's order and its optimum of 12. *)
let chunk_keeps_milp_order_on_ties () =
  let i =
    Instance.of_triples ~capacity:7.0
      [ (4.0, 0.0); (3.0, 2.0); (0.5, 0.0); (4.0, 3.5) ]
  in
  match
    Lp_schedule.solve_chunk ~boundary:Lp_schedule.initial_boundary
      ~capacity:i.Instance.capacity (Instance.task_list i)
  with
  | None -> Alcotest.fail "MILP found nothing (the incumbent is not optimal here)"
  | Some entries ->
      let s = Schedule.make ~capacity:i.Instance.capacity entries in
      Alcotest.(check bool) "valid" true (Schedule.check s = Ok ());
      check_float "matches exact free-order optimum"
        (Schedule.makespan (Exact.best_free_order i))
        (Schedule.makespan s)

let lp_k_runs_in_chunks () =
  let i =
    Instance.of_triples ~capacity:5.0
      [ (3.0, 1.0); (2.0, 3.0); (1.0, 2.0); (4.0, 1.0); (2.0, 2.0) ]
  in
  let s = Lp_schedule.run ~k:2 i in
  Alcotest.(check bool) "valid" true (Schedule.check s = Ok ());
  Alcotest.(check int) "all tasks" 5 (Schedule.size s)

let lp_k_validation () =
  Alcotest.check_raises "k >= 1" (Invalid_argument "Lp_schedule.run: k must be >= 1")
    (fun () -> ignore (Lp_schedule.run ~k:0 tiny));
  let bad = Instance.of_triples ~capacity:1.0 [ (2.0, 1.0) ] in
  Alcotest.check_raises "oversized task"
    (Invalid_argument "Lp_schedule.run: a task alone exceeds the capacity") (fun () ->
      ignore (Lp_schedule.run ~k:2 bad))

let prop_lp_chunk_at_least_free_optimum =
  Generators.prop_test ~count:25 ~name:"chunk MILP >= exact free-order optimum"
    (Generators.paper_instance_gen ~min_size:2 ~max_size:4 ())
    (fun instance ->
      let exact = Schedule.makespan (Exact.best_free_order instance) in
      match
        Lp_schedule.solve_chunk ~boundary:Lp_schedule.initial_boundary
          ~capacity:instance.Instance.capacity (Instance.task_list instance)
      with
      | None ->
          (* nothing better than the submission-order incumbent: that
             incumbent must then already be optimal *)
          let sub =
            Sim.run_order_exn ~capacity:instance.Instance.capacity
              (Instance.task_list instance)
          in
          Float.abs (Schedule.makespan sub -. exact) <= 1e-6
      | Some entries ->
          let s = Schedule.make ~capacity:instance.Instance.capacity entries in
          Generators.check_feasible "lp chunk" instance s
          && Schedule.makespan s >= exact -. 1e-6
          && Schedule.makespan s <= exact +. 1e-6)

let prop_lp_k_valid =
  Generators.prop_test ~count:20 ~name:"lp.k schedules are valid and ratio >= 1"
    (Generators.paper_instance_gen ~min_size:2 ~max_size:7 ())
    (fun instance ->
      let s = Lp_schedule.run ~node_limit:400 ~k:3 instance in
      Generators.check_feasible "lp.3" instance s
      && Schedule.size s = Instance.size instance
      && Metrics.ratio instance s >= 1.0 -. 1e-9)

let suite =
  [
    Alcotest.test_case "single chunk solves exactly" `Quick chunk_solves_tiny_exactly;
    Alcotest.test_case "chunk decode keeps the MILP order on ties" `Quick
      chunk_keeps_milp_order_on_ties;
    Alcotest.test_case "lp.k chunked run" `Quick lp_k_runs_in_chunks;
    Alcotest.test_case "lp.k validation" `Quick lp_k_validation;
    prop_lp_chunk_at_least_free_optimum;
    prop_lp_k_valid;
  ]
