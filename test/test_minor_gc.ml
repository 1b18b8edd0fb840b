(* The scheduling path never seeds a large array with a young block:
   OCaml 5's [Array.make] runs a minor collection when an array of more
   than 256 words is seeded with one. Each case starts on an empty minor
   heap and allocates less than it holds (the cached case ~60% of the
   default 256k words), so any minor collection it makes was forced. *)

open Dt_core

let no_minor_collection f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  f ();
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "minor collections" 0 (after - before)

let tasks n =
  List.init n (fun id ->
      let comm = float_of_int (1 + (id mod 7)) and comp = float_of_int (1 + (id mod 5)) in
      Task.make ~id ~comm ~comp ())

let schedule_make () =
  let tasks = tasks 1_000 in
  no_minor_collection
    (fun () ->
      let entries =
        List.mapi
          (fun i task ->
            { Schedule.task; s_comm = float_of_int i; s_comp = float_of_int (i + 1) })
          tasks
      in
      ignore (Sys.opaque_identity (Schedule.make ~capacity:10.0 entries)))

type item = { key : int; id : int }

let iheap_adds () =
  no_minor_collection (fun () ->
      let h = Iheap.create ~cmp:(fun a b -> Int.compare a.key b.key) in
      for id = 0 to 999 do
        Iheap.add h { key = (id * 7919) mod 1_000; id }
      done;
      ignore (Sys.opaque_identity h))

(* A fresh instance whose 300 tasks each read 4 consecutive tiles of a
   pool of 8: the first task scheduled leaves an input of 7 tasks in 8
   resident, so the cached loop's warm array grows past 256 slots while
   its tasks are still young. *)
let cached_rules () =
  no_minor_collection (fun () ->
      let tasks =
        List.init 300 (fun id ->
            let tile k = { Task.tile = (id + k) mod 8; t_comm = 0.25; t_mem = 0.5 } in
            let comm = float_of_int (2 + (id mod 3)) in
            Task.make ~id ~comm ~comp:(float_of_int (1 + (id mod 4))) ~mem:(comm +. 1.0)
              ~tiles:(List.init 4 tile) ())
      in
      let instance = Instance.make ~capacity:24.0 tasks in
      ignore (Sys.opaque_identity (Cached_rules.run Dynamic_rules.SCMR instance)))

(* No swap round: a round re-simulates O(n²) tasks, and that allocation
   alone fills the minor heap. The call still seeds its prefix states. *)
let local_search () =
  let tasks = tasks 300 in
  no_minor_collection
    (fun () ->
      let result = Local_search.improve ~max_rounds:0 ~capacity:20.0 tasks in
      ignore (Sys.opaque_identity result))

let suite =
  [
    Alcotest.test_case "Schedule.make over 1,000 fresh entries" `Quick schedule_make;
    Alcotest.test_case "1,000 Iheap.adds of fresh records" `Quick iheap_adds;
    Alcotest.test_case "Local_search.improve on 300 tasks" `Quick local_search;
    Alcotest.test_case "Cached_rules.run on 300 fresh tiled tasks" `Quick cached_rules;
  ]
