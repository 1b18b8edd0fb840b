(* Unit tests of the binary min-heap that the greedy decision loop and
   the cluster event simulator are built on. *)

open Dt_core

let int_heap () = Iheap.create ~cmp:(fun (a, _) (b, _) -> compare a b)

let drain_order () =
  let h = int_heap () in
  List.iter (fun k -> Iheap.add h (k, k)) [ 5; 1; 4; 2; 8; 3; 7; 0; 6; 9 ];
  Alcotest.(check int) "size" 10 (Iheap.size h);
  let rec drain acc = match Iheap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc) in
  Alcotest.(check (list int)) "sorted drain" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (drain []);
  Alcotest.(check bool) "empty after drain" true (Iheap.is_empty h)

let heap_vs_sort =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"indexed heap drains in sorted order"
       QCheck2.Gen.(list (int_bound 1000))
       (fun keys ->
         let h = int_heap () in
         List.iteri (fun i k -> Iheap.add h (k, i)) keys;
         let rec drain acc =
           match Iheap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
         in
         drain [] = List.sort compare keys))

let suite =
  [
    Alcotest.test_case "drain order" `Quick drain_order;
    heap_vs_sort;
  ]
