(* The offline workloads: fleet-hf (the paper's application: the 14
   heuristic portfolio over 150 HF process traces through Fleet.run on a
   domain pool) and cached-ccsd (the residency path: Cached_rules over 10
   CCSD traces, every criterion under both eviction policies); and the
   traced measures of the layers they pass through, which every traced
   run takes on its own workload's traces. *)

open Dt_core
module Trace = Dt_trace.Trace
module Fleet = Dt_trace.Fleet
module Pool = Dt_par.Pool

let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let pool_workers () = if Work.nproc () >= 2 then Work.nproc () - 1 else 0

let create_pool () =
  match pool_workers () with 0 -> None | n -> Some (Pool.create ~num_domains:n ())

let load ~dir ~prefix =
  let traces = Trace.load_set ~dir ~prefix in
  let instances =
    Array.map
      (fun t -> Trace.to_instance t ~capacity:(Trace.min_capacity t *. Work.capacity_factor))
      traces
  in
  (traces, instances)

let prefix_of = function "cached-ccsd" -> "ccsd" | _ -> "hf"

(* The set-up a user waits for at start: [Trace.load_set] and
   [to_instance], and on fleet-hf the pool. *)
let setup ~workload ~dir =
  let traces, instances = load ~dir ~prefix:(prefix_of workload) in
  (traces, instances, if workload = "fleet-hf" then create_pool () else None)

(* [reps] set-ups, each timed in a fresh process: on a shared host a
   process's speed depends on where it lands, so one process's repeated
   set-ups would measure its placement as much as the code. *)
let setup_times ~workload ~dir ~reps =
  List.init reps (fun _ ->
      let ic =
        Unix.open_process_args_in Sys.executable_name
          [| Sys.executable_name; "setup"; "--workload"; workload; "--dir"; dir |]
      in
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, float_of_string_opt line) with
      | Unix.WEXITED 0, Some dt -> dt
      | _ -> failwith "a set-up process failed")

(* The [setup] subcommand: one set-up, its duration on standard output. *)
let setup_probe ~workload ~dir =
  let (_, _, pool), dt = Work.time (fun () -> setup ~workload ~dir) in
  Option.iter Pool.shutdown pool;
  Printf.printf "%.9f\n" dt

(* An untraced run times its set-ups through the run, a few before the
   first pass and some after each: the host's speed drifts over seconds,
   and the set-ups then sample it over the whole run as the passes do. *)
let add_setups times ~workload ~dir ~reps = times := setup_times ~workload ~dir ~reps @ !times

let report_setup r times =
  Report.metric r "setup_s" "s" (Work.median times)
    ~detail:
      (Printf.sprintf "(%s over fresh processes through the run)"
         (Stats.describe ~scale:1.0 ~unit:"s" (Stats.summarize (Array.of_list times))))

(* trace.load_s: the traced run's measure of the set-up (on fleet-hf it
   includes the pool's creation, about a millisecond). *)
let report_load r ~workload ~dir =
  Report.metric r "trace.load_s" "s"
    (Work.median (setup_times ~workload ~dir ~reps:(Work.setup_reps workload)))
    ~detail:"(median over fresh processes; Trace.load_set + to_instance, + pool on fleet-hf)"

(* Every [k]-th element, the first included. *)
let every k a = Array.of_list (List.filteri (fun i _ -> i mod k = 0) (Array.to_list a))

(* Passes until [seconds] have gone by, at least three. Each pass is
   timed, then handed to [check] with its number (from 0), untimed, and
   dropped: the run's memory does not grow with its length. Returns the
   passes' times. *)
let passes ~seconds ~check f =
  let t0 = Spans.now () in
  let rec go k acc =
    let v, dt = Work.time f in
    check k v;
    let acc = dt :: acc in
    if Spans.now () -. t0 >= seconds && k >= 2 then List.rev acc else go (k + 1) acc
  in
  go 0 []

let report_passes r name times =
  Report.metric r name "s" (Work.median times)
    ~detail:
      (Printf.sprintf "(%s; passes %s)"
         (Stats.describe ~scale:1.0 ~unit:"s" (Stats.summarize (Array.of_list times)))
         (String.concat " " (List.map (Printf.sprintf "%.2f") times)))

let tasks_of instances = Array.fold_left (fun n i -> n + Instance.size i) 0 instances
let us_per ~total ~per = total *. 1e6 /. float_of_int per

(* ------------------------------ fleet-hf ------------------------------ *)

let portfolio = Fleet.Portfolio Heuristic.all

(* Processes whose outcome differs, bit for bit, from the reference. *)
let mismatches (a : Fleet.outcome) (b : Fleet.outcome) =
  let differ = ref 0 in
  Array.iter2
    (fun (p : Fleet.process_outcome) (q : Fleet.process_outcome) ->
      if
        not
          (p.name = q.name && same p.makespan q.makespan && same p.omim q.omim
         && same p.ratio q.ratio && p.chosen = q.chosen)
      then incr differ)
    a.processes b.processes;
  if !differ = 0 && not (same a.mean_ratio b.mean_ratio) then 1 else !differ

(* Every winner, re-run alone, passes Schedule.check, reproduces its
   makespan and is no better than the OMIM bound. *)
let check_winners r instances (outcome : Fleet.outcome) =
  let failed = ref 0 in
  Array.iteri
    (fun i (p : Fleet.process_outcome) ->
      let sched = Heuristic.run p.chosen instances.(i) in
      let ok =
        match Schedule.check sched with
        | Error v ->
            Report.problem r "%s: %s schedule invalid: %s" p.name (Heuristic.name p.chosen)
              (Schedule.violation_to_string v);
            false
        | Ok () when not (same (Schedule.makespan sched) p.makespan) ->
            Report.problem r "%s: %s makespan not reproduced" p.name (Heuristic.name p.chosen);
            false
        | Ok () when p.makespan < p.omim ->
            Report.problem r "%s: makespan %g below OMIM %g" p.name p.makespan p.omim;
            false
        | Ok () -> true
      in
      if not ok then incr failed)
    outcome.processes;
  Report.count r ~attempted:(Array.length outcome.processes) ~failed:!failed

let fleet_hf r ~dir ~seconds =
  let setups = ref [] in
  add_setups setups ~workload:"fleet-hf" ~dir ~reps:2;
  let traces, instances, pool = setup ~workload:"fleet-hf" ~dir in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) @@ fun () ->
  let reference = Fleet.run portfolio traces in
  check_winners r instances reference;
  let check k outcome =
    let failed = mismatches outcome reference in
    if failed > 0 then
      Report.problem r "pass %d: %d processes differ from the sequential run" k failed;
    Report.count r ~attempted:(Array.length traces) ~failed;
    add_setups setups ~workload:"fleet-hf" ~dir ~reps:1
  in
  (* one untimed pooled pass first: the pool sizes its chunks from the
     cost it measured on earlier jobs *)
  check 0 (Fleet.run ?pool portfolio traces);
  report_passes r "schedule_s"
    (passes ~seconds ~check:(fun k -> check (k + 1)) (fun () -> Fleet.run ?pool portfolio traces));
  report_setup r !setups;
  Report.metric r "makespan_ratio" "ratio" reference.mean_ratio
    ~detail:(Printf.sprintf "(mean over %d processes of makespan / OMIM)" (Array.length traces))

let layer_of = function
  | Heuristic.Static _ -> "core.static"
  | Gg -> "core.gg"
  | Bp -> "core.bp"
  | Dynamic _ -> "core.dynamic"
  | Corrected _ -> "core.corrected"
  | Lp _ -> "core.lp"

(* core.* and par.*, measured on [traces]: par.* from untraced pooled
   passes (for about [seconds]) and one untraced sequential pass, core.*
   from one sequential pass with a span around every call into a layer.
   Returns the traced pass's time (without its replays) over the
   untraced sequential one. *)
let portfolio_layers r ~spans ~traces ~seconds =
  let tasks = Array.fold_left (fun n t -> n + List.length t.Trace.tasks) 0 traces in
  let pool = create_pool () in
  let counts = ref [] in
  let pooled_times =
    Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) @@ fun () ->
    ignore (Fleet.run ?pool portfolio traces);
    passes ~seconds ~check:(fun _ c -> counts := c :: !counts) (fun () ->
        let s0 = Option.map Pool.stats pool and g0 = Gc.quick_stat () in
        ignore (Fleet.run ?pool portfolio traces);
        let g1 = Gc.quick_stat () in
        let d f = match (pool, s0) with Some p, Some s -> f (Pool.stats p) - f s | _ -> 0 in
        ( d (fun s -> s.Pool.jobs),
          d (fun s -> s.Pool.fallbacks),
          d (fun s -> s.Pool.steals),
          g1.Gc.minor_collections - g0.Gc.minor_collections ))
  in
  let per_pass f = Work.median (List.map (fun c -> float_of_int (f c)) !counts) in
  let pooled_s = Work.median pooled_times in
  let w0 = Gc.minor_words () in
  let reference, seq_s = Work.time (fun () -> Fleet.run portfolio traces) in
  let seq_words = Gc.minor_words () -. w0 in
  (* the traced pass: what Fleet.run does per process, call by call *)
  let traced, traced_s =
    Work.time (fun () ->
        Array.map
          (fun trace ->
            let key = trace.Trace.name in
            Spans.record spans ~key "fleet.process" (fun () ->
                let inst =
                  Spans.record spans ~key "trace.to_instance" (fun () ->
                      Trace.to_instance trace
                        ~capacity:(Trace.min_capacity trace *. Work.capacity_factor))
                in
                let best =
                  List.fold_left
                    (fun best h ->
                      let sched =
                        Spans.record spans ~key (layer_of h) (fun () -> Heuristic.run h inst)
                      in
                      (match h with
                      | Dynamic _ | Corrected _ ->
                          let order = List.map (fun e -> e.Schedule.task) (Schedule.entries sched) in
                          Spans.record spans ~key "core.sim_replay" (fun () ->
                              ignore (Sim.run_order ~capacity:inst.Instance.capacity order))
                      | _ -> ());
                      let m = Schedule.makespan sched in
                      match best with Some (_, bm) when bm <= m -> best | _ -> Some (h, m))
                    None Heuristic.all
                in
                ignore
                  (Spans.record spans ~key "core.johnson" (fun () ->
                       Johnson.omim trace.Trace.tasks));
                Option.get best))
          traces)
  in
  let failed = ref 0 in
  Array.iteri
    (fun i (h, m) ->
      let p = reference.Fleet.processes.(i) in
      if not (h = p.Fleet.chosen && same m p.Fleet.makespan) then incr failed)
    traced;
  if !failed > 0 then Report.problem r "traced pass: %d processes differ" !failed;
  Report.count r ~attempted:(Array.length traces) ~failed:!failed;
  let totals = Spans.totals (Spans.spans spans) in
  let total name = try (List.assoc name totals).Spans.total with Not_found -> 0.0 in
  let runs layer = List.length (List.filter (fun h -> layer_of h = layer) Heuristic.all) in
  List.iter
    (fun layer ->
      Report.metric r (layer ^ "_us_per_task") "us"
        (us_per ~total:(total layer) ~per:(tasks * runs layer))
        ~detail:(Printf.sprintf "(Heuristic.run, per task and heuristic, over %d)" (runs layer)))
    [ "core.static"; "core.gg"; "core.bp"; "core.dynamic"; "core.corrected" ];
  Report.metric r "core.johnson_us_per_task" "us"
    (us_per ~total:(total "core.johnson") ~per:tasks) ~detail:"(Johnson.omim)";
  Report.metric r "core.sim_share" "ratio"
    (total "core.sim_replay" /. (total "core.dynamic" +. total "core.corrected"))
    ~detail:"(Sim.run_order replay / dynamic+corrected time; rest is Candidates)";
  Report.metric r "core.minor_words_per_task" "words" (seq_words /. float_of_int tasks)
    ~detail:"(Gc.minor_words over a sequential pass)";
  Report.metric r "par.seq_pass_s" "s" seq_s ~detail:"(Fleet.run without a pool)";
  Report.metric r "par.speedup" "x" (seq_s /. pooled_s)
    ~detail:(Printf.sprintf "(sequential / median pooled pass of %d)" (List.length pooled_times));
  Report.metric r "par.jobs" "count" (per_pass (fun (j, _, _, _) -> j)) ~detail:"(per pooled pass)";
  Report.metric r "par.fallbacks" "count" (per_pass (fun (_, f, _, _) -> f)) ~detail:"(per pooled pass)";
  Report.metric r "par.steals" "count" (per_pass (fun (_, _, s, _) -> s)) ~detail:"(per pooled pass)";
  Report.metric r "par.minor_collections" "count" (per_pass (fun (_, _, _, c) -> c))
    ~detail:"(per pooled pass)";
  (traced_s -. total "core.sim_replay") /. seq_s

(* ----------------------------- cached-ccsd ---------------------------- *)

let configs =
  List.concat_map
    (fun policy -> List.map (fun c -> (policy, c)) Dynamic_rules.all)
    Residency.all_policies

let policy_layer = function
  | Residency.Lru -> "cached.lru"
  | Min_refetch -> "cached.min_refetch"

(* What the cached executor guarantees, checked without Schedule.check
   (whose memory view charges a shared resident tile once per task):
   every task once, transfers and computations each never overlapping,
   and no computation before its data. *)
let check_cached (inst : Instance.t) sched =
  let entries = Array.of_list (Schedule.entries sched) in
  let n = Instance.size inst in
  let seen = Array.make n 0 in
  Array.iter
    (fun e ->
      let id = e.Schedule.task.Task.id in
      if id >= 0 && id < n then seen.(id) <- seen.(id) + 1)
    entries;
  let sorted key =
    let a = Array.copy entries in
    Array.stable_sort (fun x y -> Float.compare (key x) (key y)) a;
    a
  in
  let disjoint start stop a =
    let ok = ref true in
    for i = 1 to Array.length a - 1 do
      if start a.(i) < stop a.(i - 1) then ok := false
    done;
    !ok
  in
  if Array.length entries <> n || Array.exists (( <> ) 1) seen then Error "a task not scheduled exactly once"
  else if not (disjoint (fun e -> e.Schedule.s_comm) Schedule.comm_end (sorted (fun e -> e.Schedule.s_comm)))
  then Error "transfers overlap"
  else if not (disjoint (fun e -> e.Schedule.s_comp) Schedule.comp_end (sorted (fun e -> e.Schedule.s_comp)))
  then Error "computations overlap"
  else if Array.exists (fun e -> e.Schedule.s_comp < Schedule.comm_end e) entries then
    Error "a computation starts before its data"
  else Ok ()

(* One pass: every process under every configuration. *)
let cached_pass instances =
  Array.map
    (fun inst ->
      List.map (fun (policy, c) -> Cached_rules.run ~policy c inst) configs)
    instances

let cached_ccsd r ~dir ~seconds =
  let setups = ref [] in
  add_setups setups ~workload:"cached-ccsd" ~dir ~reps:3;
  let traces, instances = load ~dir ~prefix:"ccsd" in
  (* a run fails when its schedule breaks an invariant, or when its
     makespan or cache statistics differ from the first pass's *)
  let fingerprint (sched, stats) = (Int64.bits_of_float (Schedule.makespan sched), stats) in
  let first = ref [||] in
  let check k pass =
    let prints = Array.map (List.map fingerprint) pass in
    if k = 0 then first := prints;
    let failed = ref 0 in
    Array.iteri
      (fun i runs ->
        List.iteri
          (fun j ((sched, _), (policy, c)) ->
            let verdict =
              match check_cached instances.(i) sched with
              | Error _ as e -> e
              | Ok () when List.nth prints.(i) j <> List.nth !first.(i) j ->
                  Error "differs from the first pass"
              | Ok () -> Ok ()
            in
            match verdict with
            | Ok () -> ()
            | Error msg ->
                incr failed;
                Report.problem r "pass %d %s %s: %s" k traces.(i).Trace.name
                  (Cached_rules.name policy c) msg)
          (List.combine runs configs))
      pass;
    Report.count r ~attempted:(Array.length instances * List.length configs) ~failed:!failed;
    add_setups setups ~workload:"cached-ccsd" ~dir ~reps:2
  in
  report_passes r "schedule_s" (passes ~seconds ~check (fun () -> cached_pass instances));
  report_setup r !setups;
  let best =
    Array.map
      (List.fold_left (fun m (bits, _) -> Float.min m (Int64.float_of_bits bits)) infinity)
      !first
  in
  let ratio =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun i m -> m /. Johnson.omim traces.(i).Trace.tasks) best)
    /. float_of_int (Array.length best)
  in
  Report.metric r "makespan_ratio" "ratio" ratio
    ~detail:
      (Printf.sprintf "(mean over %d processes of best cached makespan / OMIM)"
         (Array.length best))

(* cached.* and residency.*, measured on [instances]: one untraced pass
   of every configuration, then one with a span around every
   Cached_rules.run and its replay. Returns the traced pass's time
   (without its replays) over the untraced one. *)
let cached_layers r ~spans ~traces ~instances =
  let tasks = tasks_of instances in
  let w0 = Gc.minor_words () in
  let untraced, untraced_s = Work.time (fun () -> cached_pass instances) in
  let words = Gc.minor_words () -. w0 in
  let traced, traced_s =
    Work.time (fun () ->
        Array.mapi
          (fun i inst ->
            let key = traces.(i).Trace.name in
            Spans.record spans ~key "cached.process" (fun () ->
                List.map
                  (fun (policy, c) ->
                    let sched, stats =
                      Spans.record spans ~key (policy_layer policy) (fun () ->
                          Cached_rules.run ~policy c inst)
                    in
                    let order =
                      List.map
                        (fun e -> inst.Instance.tasks.(e.Schedule.task.Task.id))
                        (Schedule.entries sched)
                    in
                    Spans.record spans ~key "cached.sim_replay" (fun () ->
                        ignore
                          (Sim.run_order_cached ~policy ~capacity:inst.Instance.capacity order));
                    (sched, stats))
                  configs))
          instances)
  in
  let differ = ref 0 in
  Array.iteri
    (fun i runs ->
      if List.map (fun (s, st) -> (Schedule.makespan s, st)) runs
         <> List.map (fun (s, st) -> (Schedule.makespan s, st)) untraced.(i)
      then incr differ)
    traced;
  if !differ > 0 then Report.problem r "traced pass: %d processes differ" !differ;
  Report.count r ~attempted:(Array.length instances) ~failed:!differ;
  let totals = Spans.totals (Spans.spans spans) in
  let total name = try (List.assoc name totals).Spans.total with Not_found -> 0.0 in
  let per_policy = List.length Dynamic_rules.all in
  List.iter
    (fun policy ->
      let layer = policy_layer policy in
      Report.metric r (layer ^ "_us_per_task") "us"
        (us_per ~total:(total layer) ~per:(tasks * per_policy))
        ~detail:"(Cached_rules.run, per task per criterion)")
    Residency.all_policies;
  Report.metric r "cached.sim_share" "ratio"
    (total "cached.sim_replay" /. (total "cached.lru" +. total "cached.min_refetch"))
    ~detail:"(Sim.run_order_cached replay / Cached_rules time; rest is the scan)";
  Report.metric r "cached.minor_words_per_task" "words" (words /. float_of_int tasks)
    ~detail:"(Gc.minor_words over an untraced pass)";
  let sum f =
    Array.fold_left (fun acc runs -> List.fold_left (fun acc (_, st) -> acc + f st) acc runs) 0 traced
  in
  let hits = sum (fun s -> s.Residency.hits) and misses = sum (fun s -> s.Residency.misses) in
  Report.metric r "residency.hits" "count" (float_of_int hits)
    ~detail:(Printf.sprintf "(per pass, all %d runs)" (Array.length instances * List.length configs));
  Report.metric r "residency.misses" "count" (float_of_int misses) ~detail:"(per pass)";
  Report.metric r "residency.evictions" "count"
    (float_of_int (sum (fun s -> s.Residency.evictions)))
    ~detail:"(per pass)";
  Report.metric r "residency.hit_rate" "ratio"
    (float_of_int hits /. float_of_int (hits + misses))
    ~detail:"(hits / tile references)";
  (traced_s -. total "cached.sim_replay") /. untraced_s
