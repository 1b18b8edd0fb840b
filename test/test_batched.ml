(* Batched scheduling (Section 6.3). *)

open Dt_core

let check_float = Alcotest.(check (float 1e-9))

let slices_shapes () =
  Alcotest.(check (list (list int))) "even" [ [ 1; 2 ]; [ 3; 4 ] ]
    (Batched.slices ~batch:2 [ 1; 2; 3; 4 ]);
  Alcotest.(check (list (list int))) "ragged" [ [ 1; 2; 3 ]; [ 4 ] ]
    (Batched.slices ~batch:3 [ 1; 2; 3; 4 ]);
  Alcotest.(check (list (list int))) "oversized batch" [ [ 1; 2 ] ]
    (Batched.slices ~batch:10 [ 1; 2 ]);
  Alcotest.(check (list (list int))) "empty" [] (Batched.slices ~batch:3 []);
  Alcotest.check_raises "batch >= 1" (Invalid_argument "Batched.slices: batch must be >= 1")
    (fun () -> ignore (Batched.slices ~batch:0 [ 1 ]))

let batch_of_full_size_equals_plain () =
  let i = Paper_examples.table4 in
  List.iter
    (fun h ->
      let plain = Heuristic.run h i in
      let batched = Batched.run ~batch:Int.max_int h i in
      check_float (Heuristic.name h) (Schedule.makespan plain) (Schedule.makespan batched))
    Heuristic.all

let batching_carries_state () =
  (* batch = 1 forces strict submission order with pipelining across
     batches: identical to the OS static heuristic. *)
  let i = Paper_examples.table4 in
  let batched = Batched.run ~batch:1 (Heuristic.Dynamic Dynamic_rules.LCMR) i in
  let os = Static_rules.run Static_rules.OS i in
  check_float "batch=1 = submission order" (Schedule.makespan os) (Schedule.makespan batched)

let prop_batched_valid =
  Generators.prop_test ~count:80 ~name:"batched schedules are valid for every heuristic"
    (Generators.instance_gen ~min_size:1 ~max_size:9 ())
    (fun instance ->
      List.for_all
        (fun h ->
          let s = Batched.run ~batch:3 h instance in
          Generators.check_feasible (Heuristic.name h) instance s
          && Schedule.size s = Instance.size instance)
        Heuristic.all)

let prop_batched_full_equals_plain =
  Generators.prop_test ~count:60 ~name:"batch >= n equals unbatched"
    (Generators.instance_gen ~min_size:1 ~max_size:8 ())
    (fun instance ->
      List.for_all
        (fun h ->
          let plain = Schedule.makespan (Heuristic.run h instance) in
          let batched = Schedule.makespan (Batched.run ~batch:100 h instance) in
          Float.abs (plain -. batched) <= 1e-9)
        Heuristic.all)

let prop_batched_never_beats_omim =
  Generators.prop_test ~count:60 ~name:"batched ratio >= 1"
    (Generators.instance_gen ~min_size:1 ~max_size:8 ())
    (fun instance ->
      List.for_all
        (fun h -> Metrics.ratio instance (Batched.run ~batch:2 h instance) >= 1.0 -. 1e-9)
        Heuristic.all)

(* The one-pass run against the frozen per-batch rebuild
   ([Reference.Batch]): every entry the same task at the same times, bit
   for bit, for every heuristic but lp.k. *)
let prop_batched_reference =
  let bits x = Int64.bits_of_float x in
  let same (a : Schedule.entry) (b : Schedule.entry) =
    a.Schedule.task == b.Schedule.task
    && bits a.Schedule.s_comm = bits b.Schedule.s_comm
    && bits a.Schedule.s_comp = bits b.Schedule.s_comp
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"one-pass batches = per-batch rebuild, bit for bit"
       ~print:(fun (i, batch) -> Printf.sprintf "batch=%d %s" batch (Generators.instance_print i))
       QCheck2.Gen.(pair (Generators.instance_gen ~min_size:1 ~max_size:30 ()) (int_range 1 7))
       (fun (instance, batch) ->
         List.for_all
           (fun h ->
             let got = Schedule.entries (Batched.run ~batch h instance)
             and want = Schedule.entries (Reference.Batch.run ~batch h instance) in
             List.length got = List.length want && List.for_all2 same got want)
           Heuristic.all))

let suite =
  [
    Alcotest.test_case "slices" `Quick slices_shapes;
    Alcotest.test_case "full batch = plain" `Quick batch_of_full_size_equals_plain;
    Alcotest.test_case "batch=1 = submission order" `Quick batching_carries_state;
    prop_batched_valid;
    prop_batched_full_equals_plain;
    prop_batched_never_beats_omim;
    prop_batched_reference;
  ]
