(* The benchmark's own helpers: the quantile rule behind every reported
   timing, and the self-time arithmetic behind every per-layer metric. *)

let check_float = Alcotest.(check (float 1e-12))
let range n = Array.init n (fun i -> float_of_int (i + 1))

let beyond_counts () =
  Alcotest.(check int) "p99 of 1000" 10 (Stats.beyond ~n:1000 99.0);
  Alcotest.(check int) "p99 of 999" 9 (Stats.beyond ~n:999 99.0);
  Alcotest.(check int) "p99.9 of 10000" 10 (Stats.beyond ~n:10000 99.9);
  Alcotest.(check int) "p90 of 100" 10 (Stats.beyond ~n:100 90.0);
  Alcotest.(check int) "p50 of 7" 3 (Stats.beyond ~n:7 50.0)

let median_and_interpolation () =
  check_float "odd median" 5.0 (Result.get_ok (Stats.percentile (range 9) 50.0));
  check_float "even median interpolates" 2.5
    (Result.get_ok (Stats.percentile [| 4.0; 1.0; 3.0; 2.0 |] 50.0));
  check_float "p90 of 1..101" 91.0 (Result.get_ok (Stats.percentile (range 101) 90.0));
  check_float "single sample" 7.0 (Result.get_ok (Stats.percentile [| 7.0 |] 50.0))

let refuses_thin_tails () =
  Alcotest.(check bool) "p99 of 999 refused" true
    (Result.is_error (Stats.percentile (range 999) 99.0));
  Alcotest.(check bool) "p99 of 1000 given" true
    (Result.is_ok (Stats.percentile (range 1000) 99.0));
  Alcotest.(check bool) "empty refused" true (Result.is_error (Stats.percentile [||] 50.0));
  Alcotest.(check bool) "median of 2 given" true
    (Result.is_ok (Stats.percentile [| 1.0; 2.0 |] 50.0))

let tail_choice () =
  let tail n = (Stats.summarize (range n)).Stats.tail |> Option.map fst in
  Alcotest.(check (option (float 0.0))) "39 samples: no tail" None (tail 39);
  Alcotest.(check (option (float 0.0))) "40 samples: p75" (Some 75.0) (tail 40);
  Alcotest.(check (option (float 0.0))) "150 samples: p90" (Some 90.0) (tail 150);
  Alcotest.(check (option (float 0.0))) "1000 samples: p99" (Some 99.0) (tail 1000);
  Alcotest.(check (option (float 0.0))) "10^5 samples: p99.99" (Some 99.99) (tail 100_000);
  let s = Stats.summarize (range 1000) in
  Alcotest.(check int) "count" 1000 s.Stats.n;
  check_float "median" 500.5 s.Stats.median

let span ~id ~parent start stop =
  { Spans.id; parent; name = Printf.sprintf "s%d" id; key = ""; start; stop }

let self_time_children () =
  let spans =
    [| span ~id:0 ~parent:(-1) 0.0 10.0; span ~id:1 ~parent:0 1.0 3.0;
       span ~id:2 ~parent:0 5.0 6.0; span ~id:3 ~parent:1 1.5 2.0 |]
  in
  let self = Spans.self_times spans in
  check_float "root minus its two children" 7.0 self.(0);
  check_float "child minus grandchild" 1.5 self.(1);
  check_float "leaf" 1.0 self.(2);
  check_float "grandchild leaf" 0.5 self.(3)

let self_time_overlap_and_clip () =
  let spans =
    [| span ~id:0 ~parent:(-1) 0.0 10.0; span ~id:1 ~parent:0 2.0 6.0;
       span ~id:2 ~parent:0 4.0 8.0; span ~id:3 ~parent:0 3.0 5.0;
       span ~id:4 ~parent:0 9.0 12.0 |]
  in
  (* [2,8] covered once despite three overlapping children; [9,12] is
     clipped to the parent's end at 10 *)
  check_float "overlap counted once, child clipped" 3.0 (Spans.self_times spans).(0)

let record_nesting () =
  let t = Spans.create () in
  Spans.record t ~key:"hf-p000" "outer" (fun () ->
      Spans.record t "inner" (fun () -> ());
      (try Spans.record t "raises" (fun () -> failwith "boom") with Failure _ -> ());
      Spans.record t "inner" (fun () -> ()));
  let spans = Spans.spans t in
  Alcotest.(check int) "four spans, the raising one closed too" 4 (Array.length spans);
  let outer = spans.(3) in
  Alcotest.(check string) "outer closes last" "outer" outer.Spans.name;
  Alcotest.(check string) "key kept" "hf-p000" outer.Spans.key;
  Array.iteri
    (fun i s ->
      if i < 3 then Alcotest.(check int) "parent is outer" outer.Spans.id s.Spans.parent)
    spans;
  Alcotest.(check int) "outer is a root" (-1) outer.Spans.parent;
  let totals = Spans.totals spans in
  Alcotest.(check int) "inner counted twice" 2 (List.assoc "inner" totals).Spans.count;
  let self = Spans.self_times spans in
  Alcotest.(check bool) "self time within duration" true
    (self.(3) >= 0.0 && self.(3) <= outer.Spans.stop -. outer.Spans.start)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "beyond counts" `Quick beyond_counts;
          Alcotest.test_case "median and interpolation" `Quick median_and_interpolation;
          Alcotest.test_case "thin tails refused" `Quick refuses_thin_tails;
          Alcotest.test_case "tail choice" `Quick tail_choice;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time of nested spans" `Quick self_time_children;
          Alcotest.test_case "overlapping and clipped children" `Quick
            self_time_overlap_and_clip;
          Alcotest.test_case "record nests and closes on raise" `Quick record_nesting;
        ] );
    ]
