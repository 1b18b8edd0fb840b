(* dt_par: the domain pool agrees with sequential evaluation exactly, and
   the parallel fleet/portfolio paths are bit-identical to sequential. *)

open Dt_core

(* One shared pool for the whole suite: pools are cheap to reuse and the
   suite exercises reuse across many calls that way. *)
let pool = lazy (Dt_par.Pool.create ~num_domains:3 ())

let map_matches_sequential () =
  let pool = Lazy.force pool in
  List.iter
    (fun n ->
      let a = Array.init n (fun i -> i) in
      let f x = (x * x) + 1 in
      Alcotest.(check (array int))
        (Printf.sprintf "int map, n = %d" n)
        (Array.map f a)
        (Dt_par.Pool.parallel_map pool f a);
      let g x = Printf.sprintf "<%d>" x in
      Alcotest.(check (array string))
        (Printf.sprintf "string map, n = %d" n)
        (Array.map g a)
        (Dt_par.Pool.parallel_map pool g a))
    [ 0; 1; 2; 3; 4; 7; 12; 64; 1000 ]

let exceptions_propagate () =
  let pool = Lazy.force pool in
  let a = Array.init 512 (fun i -> i) in
  Alcotest.check_raises "raises the worker's exception" (Failure "boom")
    (fun () ->
      ignore
        (Dt_par.Pool.parallel_map pool
           (fun x -> if x = 300 then failwith "boom" else x)
           a));
  (* the pool survives a failed job *)
  Alcotest.(check (array int))
    "usable after failure"
    (Array.map succ a)
    (Dt_par.Pool.parallel_map pool succ a)

let nested_calls_degrade () =
  let pool = Lazy.force pool in
  let outer = Array.init 8 (fun i -> i) in
  let inner = Array.init 50 (fun i -> i) in
  let expect =
    Array.map (fun i -> Array.fold_left ( + ) i (Array.map succ inner)) outer
  in
  let got =
    Dt_par.Pool.parallel_map pool
      (fun i ->
        (* inner call from a worker domain: must fall back to sequential
           instead of deadlocking on the busy pool *)
        Array.fold_left ( + ) i (Dt_par.Pool.parallel_map pool succ inner))
      outer
  in
  Alcotest.(check (array int)) "nested map result" expect got

let prop_parallel_map_is_map =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"parallel_map = Array.map"
       ~print:(fun (l, k) ->
         Printf.sprintf "(%d elements, f = fun x -> x * %d + x mod 7)"
           (List.length l) k)
       QCheck2.Gen.(pair (list_size (int_range 0 200) int) (int_range 1 9))
       (fun (l, k) ->
         let a = Array.of_list l in
         let f x = (x * k) + (x mod 7) in
         Dt_par.Pool.parallel_map (Lazy.force pool) f a = Array.map f a))

(* ------------------------- fleet determinism ------------------------- *)

(* A generated HF-like trace set: homogeneous, communication-intensive
   tasks (the paper's Hartree-Fock regime) with the memory footprint equal
   to the communication time, as in the paper's traces. *)
let hf_like_traces ~traces ~tasks_per_trace =
  Array.init traces (fun p ->
      let rng = Dt_stats.Rng.create ((p * 7919) + 13) in
      let tasks =
        List.init tasks_per_trace (fun id ->
            let comm = Dt_stats.Rng.uniform rng 3.0 4.0 in
            let comp = Dt_stats.Rng.uniform rng 0.5 1.5 in
            Task.make ~id ~comm ~comp ())
      in
      Dt_trace.Trace.make ~name:(Printf.sprintf "hf-like-p%03d" p) tasks)

let same_outcomes (a : Dt_trace.Fleet.outcome) (b : Dt_trace.Fleet.outcome) =
  Array.length a.Dt_trace.Fleet.processes = Array.length b.Dt_trace.Fleet.processes
  && Array.for_all2
       (fun (pa : Dt_trace.Fleet.process_outcome) (pb : Dt_trace.Fleet.process_outcome) ->
         pa.Dt_trace.Fleet.name = pb.Dt_trace.Fleet.name
         && pa.Dt_trace.Fleet.makespan = pb.Dt_trace.Fleet.makespan
         && pa.Dt_trace.Fleet.omim = pb.Dt_trace.Fleet.omim
         && pa.Dt_trace.Fleet.ratio = pb.Dt_trace.Fleet.ratio
         && Heuristic.name pa.Dt_trace.Fleet.chosen
            = Heuristic.name pb.Dt_trace.Fleet.chosen)
       a.Dt_trace.Fleet.processes b.Dt_trace.Fleet.processes
  && a.Dt_trace.Fleet.application_makespan = b.Dt_trace.Fleet.application_makespan
  && a.Dt_trace.Fleet.mean_ratio = b.Dt_trace.Fleet.mean_ratio
  && a.Dt_trace.Fleet.worst_ratio = b.Dt_trace.Fleet.worst_ratio

let fleet_parallel_is_sequential () =
  let traces = hf_like_traces ~traces:12 ~tasks_per_trace:40 in
  let policy = Dt_trace.Fleet.Portfolio Heuristic.all in
  let sequential = Dt_trace.Fleet.run policy traces in
  let parallel =
    Dt_trace.Fleet.run ~pool:(Lazy.force pool) policy traces
  in
  Alcotest.(check bool)
    "pooled fleet outcomes bit-identical to sequential" true
    (same_outcomes sequential parallel);
  (* same for a fixed policy *)
  let fixed = Dt_trace.Fleet.Fixed (Heuristic.Dynamic Dynamic_rules.LCMR) in
  Alcotest.(check bool)
    "fixed policy identical too" true
    (same_outcomes (Dt_trace.Fleet.run fixed traces)
       (Dt_trace.Fleet.run ~pool:(Lazy.force pool) fixed traces))

(* Regression: shutdown semantics are defined — double shutdown is a
   no-op, any parallel_map afterwards (including the small-array fast
   path) raises, and non-positive domain counts are rejected at create. *)
let shutdown_is_defined () =
  let p = Dt_par.Pool.create ~num_domains:2 () in
  Alcotest.(check (array int))
    "usable before shutdown" [| 1; 2; 3 |]
    (Dt_par.Pool.parallel_map p succ [| 0; 1; 2 |]);
  Dt_par.Pool.shutdown p;
  Dt_par.Pool.shutdown p;
  (* second call must return, not hang or double-join *)
  let after = Invalid_argument "Pool.parallel_map: pool is shut down" in
  Alcotest.check_raises "parallel_map after shutdown" after (fun () ->
      ignore (Dt_par.Pool.parallel_map p succ (Array.init 64 Fun.id)));
  Alcotest.check_raises "even on the sequential small-array path" after (fun () ->
      ignore (Dt_par.Pool.parallel_map p succ [| 0 |]))

(* Satellite: the silent sequential fallback is silent no more — inline
   executions (nested calls in particular) show up in Pool.stats. *)
let stats_expose_fallbacks () =
  Dt_par.Pool.with_pool ~num_domains:2 (fun p ->
      let before = Dt_par.Pool.stats p in
      Alcotest.(check int) "fresh pool: no jobs" 0 before.Dt_par.Pool.jobs;
      let outer = Array.init 4 (fun i -> i) in
      let inner = Array.init 400 (fun i -> i) in
      ignore
        (Dt_par.Pool.parallel_map p
           (fun i ->
             Array.fold_left ( + ) i (Dt_par.Pool.parallel_map p succ inner))
           outer);
      let s = Dt_par.Pool.stats p in
      (* outer call + 4 nested calls all count as accepted jobs *)
      Alcotest.(check int) "jobs counted" 5 s.Dt_par.Pool.jobs;
      (* every nested call ran inline, deterministically *)
      Alcotest.(check int) "nested calls counted as fallbacks" 4
        s.Dt_par.Pool.fallbacks;
      Alcotest.(check bool) "steal counter is non-negative" true
        (s.Dt_par.Pool.steals >= 0))

(* Caller-help: with every worker blocked behind a pinned task, the
   calling domain must claim every index itself. The blockers wait on a
   latch with a deadline, so a caller that waits for its helpers fails
   the test instead of hanging it. Once released, the workers run the
   first job's stale helpers, which must find no index left. *)
let caller_helps_when_workers_are_blocked () =
  Dt_par.Pool.with_pool ~num_domains:2 (fun p ->
      let d = Dt_par.Pool.num_domains p in
      let release = Atomic.make false and timed_out = Atomic.make 0 in
      let deadline = Unix.gettimeofday () +. 5.0 in
      for shard = 0 to d - 1 do
        Dt_par.Pool.submit p ~shard (fun () ->
            while (not (Atomic.get release)) && Unix.gettimeofday () < deadline do
              Unix.sleepf 0.001
            done;
            if not (Atomic.get release) then Atomic.incr timed_out)
      done;
      let a = Array.init 200 (fun i -> i) in
      let f x = (x * 7) + (x mod 5) in
      Alcotest.(check (array int))
        "map with every worker blocked" (Array.map f a)
        (Dt_par.Pool.parallel_map p f a);
      Alcotest.(check int) "no blocker reached its deadline" 0 (Atomic.get timed_out);
      Atomic.set release true;
      (* a marker behind each shard's stale helper: once every marker has
         run, so has every helper of the first job *)
      let markers = Atomic.make 0 in
      for shard = 0 to d - 1 do
        Dt_par.Pool.submit p ~shard (fun () -> Atomic.incr markers)
      done;
      while Atomic.get markers < d && Unix.gettimeofday () < deadline +. 5.0 do
        Unix.sleepf 0.001
      done;
      Alcotest.(check int) "stale helpers and markers ran" d (Atomic.get markers);
      let g x = (x * 3) - 1 in
      Alcotest.(check (array int))
        "map after the stale helpers ran" (Array.map g a)
        (Dt_par.Pool.parallel_map p g a))

(* Concurrent parallel_map calls from several domains on one pool: each
   caller helps with its own job's chunks, so all of them complete and
   each result is exactly the sequential map. *)
let concurrent_callers () =
  let pool = Lazy.force pool in
  let callers =
    Array.init 4 (fun k ->
        Domain.spawn (fun () ->
            let a = Array.init 300 (fun i -> (k * 1000) + i) in
            let f x = (x * 3) + (x mod 11) in
            Dt_par.Pool.parallel_map pool f a = Array.map f a))
  in
  Array.iteri
    (fun k d ->
      Alcotest.(check bool)
        (Printf.sprintf "caller %d got the sequential result" k)
        true (Domain.join d))
    callers

(* Pinned submissions execute on their shard in submission order. *)
let submit_is_ordered_per_shard () =
  Dt_par.Pool.with_pool ~num_domains:2 (fun p ->
      let log = Array.make 2 [] in
      let mutex = Mutex.create () in
      let remaining = Atomic.make 20 in
      for i = 0 to 19 do
        let shard = i mod 2 in
        Dt_par.Pool.submit p ~shard (fun () ->
            Mutex.lock mutex;
            log.(shard) <- i :: log.(shard);
            Mutex.unlock mutex;
            Atomic.decr remaining)
      done;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Atomic.get remaining > 0 && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      Alcotest.(check int) "all pinned tasks ran" 0 (Atomic.get remaining);
      Mutex.lock mutex;
      let seen = Array.map List.rev log in
      Mutex.unlock mutex;
      Alcotest.(check (list int))
        "shard 0 in submission order"
        [ 0; 2; 4; 6; 8; 10; 12; 14; 16; 18 ]
        seen.(0);
      Alcotest.(check (list int))
        "shard 1 in submission order"
        [ 1; 3; 5; 7; 9; 11; 13; 15; 17; 19 ]
        seen.(1))

let create_rejects_bad_sizes () =
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "num_domains = %d" n)
        (Invalid_argument
           (Printf.sprintf "Pool.create: num_domains must be positive (got %d)" n))
        (fun () -> ignore (Dt_par.Pool.create ~num_domains:n ())))
    [ 0; -1; -8 ]

let suite =
  [
    Alcotest.test_case "parallel_map on assorted sizes" `Quick map_matches_sequential;
    Alcotest.test_case "shutdown is a defined no-op twice" `Quick shutdown_is_defined;
    Alcotest.test_case "create rejects non-positive sizes" `Quick create_rejects_bad_sizes;
    Alcotest.test_case "exception propagation" `Quick exceptions_propagate;
    Alcotest.test_case "nested calls fall back to sequential" `Quick nested_calls_degrade;
    Alcotest.test_case "stats expose inline fallbacks" `Quick stats_expose_fallbacks;
    Alcotest.test_case "caller computes while every worker is blocked" `Quick
      caller_helps_when_workers_are_blocked;
    Alcotest.test_case "concurrent callers all complete" `Quick concurrent_callers;
    Alcotest.test_case "pinned submit is FIFO per shard" `Quick submit_is_ordered_per_shard;
    prop_parallel_map_is_map;
    Alcotest.test_case "fleet: pool = sequential, bit for bit" `Quick
      fleet_parallel_is_sequential;
  ]
