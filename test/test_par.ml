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

(* Caller-help: with every worker blocked inside another caller's job,
   the calling domain must claim every index itself. A spawned domain
   maps d + 1 elements that wait on a latch: its own helper and the d
   workers each hold one. Every wait has a deadline, so a caller that
   waits for its helpers fails the test instead of hanging it. Once
   released, the workers run the second job's stale helpers, which must
   find no index left. *)
let caller_helps_when_workers_are_blocked () =
  Dt_par.Pool.with_pool ~num_domains:2 (fun p ->
      let d = Dt_par.Pool.num_domains p in
      let entered = Atomic.make 0 and release = Atomic.make false in
      let timed_out = Atomic.make 0 in
      let deadline = Unix.gettimeofday () +. 5.0 in
      let await cond =
        while (not (cond ())) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        cond ()
      in
      let blocker x =
        Atomic.incr entered;
        if not (await (fun () -> Atomic.get release)) then Atomic.incr timed_out;
        x
      in
      let blocked = Array.init (d + 1) Fun.id in
      let other =
        Domain.spawn (fun () -> Dt_par.Pool.parallel_map p blocker blocked)
      in
      let all_entered = await (fun () -> Atomic.get entered = d + 1) in
      let a = Array.init 200 (fun i -> i) in
      let f x = (x * 7) + (x mod 5) in
      let got = if all_entered then Dt_par.Pool.parallel_map p f a else [||] in
      Atomic.set release true;
      let other_result = Domain.join other in
      Alcotest.(check bool)
        "every worker and the other caller hold a blocking element" true
        all_entered;
      Alcotest.(check (array int)) "map with every worker blocked" (Array.map f a) got;
      Alcotest.(check int) "no blocker reached its deadline" 0 (Atomic.get timed_out);
      Alcotest.(check (array int)) "the blocking job completes" blocked other_result;
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

let create_rejects_bad_sizes () =
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "num_domains = %d" n)
        (Invalid_argument
           (Printf.sprintf "Pool.create: num_domains must be positive (got %d)" n))
        (fun () -> ignore (Dt_par.Pool.create ~num_domains:n ())))
    [ 0; -1; -8 ]

(* DTSCHED_DOMAINS sizes the default pool. *)
let env_sizes_default_pool () =
  let previous = Sys.getenv_opt "DTSCHED_DOMAINS" in
  Unix.putenv "DTSCHED_DOMAINS" "1";
  Fun.protect
    ~finally:(fun () ->
      (* Unix has no unsetenv: an unset variable stays "1", which keeps
         any later default-sized pool valid *)
      Unix.putenv "DTSCHED_DOMAINS" (Option.value previous ~default:"1"))
    (fun () ->
      Alcotest.(check int) "DTSCHED_DOMAINS=1 sizes the default pool to one worker"
        1 (Dt_par.Pool.default_num_domains ());
      Dt_par.Pool.with_pool (fun pool ->
          Alcotest.(check int) "one worker" 1 (Dt_par.Pool.num_domains pool)))

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
    Alcotest.test_case "DTSCHED_DOMAINS=1 sizes default pool" `Quick
      env_sizes_default_pool;
    prop_parallel_map_is_map;
    Alcotest.test_case "fleet: pool = sequential, bit for bit" `Quick
      fleet_parallel_is_sequential;
  ]
