(* Fleet scaling experiment: the whole-application portfolio run (one
   independent scheduler per process trace, every candidate heuristic
   tried on each — the paper's 150-process evaluation driven by the Auto
   runtime) executed sequentially and on domain pools of growing size.

   Emits BENCH_fleet.json with machine-readable wall-clock numbers so the
   perf trajectory is tracked from PR to PR.  The JSON records the host's
   recommended domain count: on a single-core container every pool size
   necessarily measures ~1x, and the file says so rather than hiding it. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* A configuration's wall clock is the median of [passes] timed passes
   after one untimed one. A single cold pass of the fast workload lasts a
   few milliseconds, short enough for host noise to decide the speedup
   gate. *)
let passes = 5

let timed_passes f =
  let first = f () in
  let runs = List.init passes (fun _ -> wall f) in
  let times = List.map snd runs in
  (first :: List.map fst runs, Dt_stats.Descriptive.median (Array.of_list times), times)

let json_times times =
  "[" ^ String.concat ", " (List.map (Printf.sprintf "%.6f") times) ^ "]"

let same_outcome (a : Dt_trace.Fleet.outcome) (b : Dt_trace.Fleet.outcome) =
  a.Dt_trace.Fleet.application_makespan = b.Dt_trace.Fleet.application_makespan
  && a.Dt_trace.Fleet.mean_ratio = b.Dt_trace.Fleet.mean_ratio
  && Array.for_all2
       (fun (p : Dt_trace.Fleet.process_outcome) (q : Dt_trace.Fleet.process_outcome) ->
         p.Dt_trace.Fleet.makespan = q.Dt_trace.Fleet.makespan
         && Dt_core.Heuristic.name p.Dt_trace.Fleet.chosen
            = Dt_core.Heuristic.name q.Dt_trace.Fleet.chosen)
       a.Dt_trace.Fleet.processes b.Dt_trace.Fleet.processes

let run () =
  Printf.printf "\n== scaling: fleet wall-clock vs domain count ==\n\n";
  let traces = Lazy.force Data.hf_traces in
  let policy = Dt_trace.Fleet.Portfolio Dt_core.Heuristic.all in
  let seq_outcomes, seq_wall, seq_times =
    timed_passes (fun () -> Dt_trace.Fleet.run policy traces)
  in
  let seq = List.hd seq_outcomes in
  let recommended = Domain.recommended_domain_count () in
  let domain_counts =
    List.sort_uniq Int.compare [ 1; 2; 4; max 1 (recommended - 1) ]
  in
  let runs =
    List.map
      (fun domains ->
        let (outcomes, wall_s, times), stats =
          Dt_par.Pool.with_pool ~num_domains:domains (fun pool ->
              let timed =
                timed_passes (fun () -> Dt_trace.Fleet.run ~pool policy traces)
              in
              (timed, Dt_par.Pool.stats pool))
        in
        let identical = List.for_all (same_outcome seq) outcomes in
        (domains, wall_s, seq_wall /. wall_s, identical, stats, times))
      domain_counts
  in
  Dt_report.Table.print
    ~header:
      [ "configuration"; "median wall clock"; "speedup"; "identical results"; "pool jobs/fallbacks" ]
    (( [ "sequential"; Printf.sprintf "%.3f s" seq_wall; "1.00x"; "-"; "-" ] )
    :: List.map
         (fun (d, w, s, id, (st : Dt_par.Pool.stats), _) ->
           [
             Printf.sprintf "%d domain%s" d (if d = 1 then "" else "s");
             Printf.sprintf "%.3f s" w;
             Printf.sprintf "%.2fx" s;
             (if id then "yes" else "NO");
             Printf.sprintf "%d/%d" st.Dt_par.Pool.jobs st.Dt_par.Pool.fallbacks;
           ])
         runs);
  Printf.printf
    "\n(%d traces, portfolio of %d heuristics per process; median of %d passes \
     after an untimed one; d domains = d workers + the calling domain; host \
     recommends %d domains)\n"
    (Array.length traces)
    (List.length Dt_core.Heuristic.all)
    passes recommended;
  List.iter
    (fun (_, _, _, identical, _, _) ->
      if not identical then
        failwith "scaling: parallel fleet diverged from sequential results")
    runs;
  (* the speedup gate ci.sh enforces on multi-core hosts: the best
     multi-domain run must beat sequential, or the parallel path lost *)
  let best_multi =
    List.fold_left
      (fun acc (d, _, s, _, _, _) -> if d >= 2 then Float.max acc s else acc)
      0.0 runs
  in
  Printf.printf
    "GATE best_multi_domain_speedup=%.3f cores=%d gate_skipped_single_core=%b\n"
    best_multi recommended (recommended < 2);
  Provenance.write_artifact ~path:"BENCH_fleet.json" ~experiment:"fleet-scaling" (fun oc ->
      Printf.fprintf oc
        "  \"kernel\": \"%s\",\n\
        \  \"traces\": %d,\n\
        \  \"portfolio_size\": %d,\n\
        \  \"capacity_factor\": 1.5,\n\
        \  \"fast_mode\": %b,\n\
        \  \"recommended_domain_count\": %d,\n\
        \  \"gate_skipped_single_core\": %b,\n\
        \  \"best_multi_domain_speedup\": %.3f,\n\
        \  \"application_makespan\": %.17g,\n\
        \  \"application_lower_bound\": %.17g,\n\
        \  \"mean_ratio\": %.6f,\n\
        \  \"passes\": %d,\n\
        \  \"sequential_wall_s\": %.6f,\n\
        \  \"sequential_pass_s\": %s,\n\
        \  \"runs\": [\n"
        (Provenance.json_escape "hf")
        (Array.length traces)
        (List.length Dt_core.Heuristic.all)
        Data.fast recommended (recommended < 2) best_multi
        seq.Dt_trace.Fleet.application_makespan
        seq.Dt_trace.Fleet.application_lower_bound
        seq.Dt_trace.Fleet.mean_ratio passes seq_wall (json_times seq_times);
      List.iteri
        (fun i (d, w, s, identical, (st : Dt_par.Pool.stats), times) ->
          Printf.fprintf oc
            "    { \"domains\": %d, \"wall_s\": %.6f, \"pass_s\": %s, \
             \"speedup\": %.3f, \"identical\": %b, \"pool_jobs\": %d, \
             \"pool_fallbacks\": %d }%s\n"
            d w (json_times times) s identical st.Dt_par.Pool.jobs
            st.Dt_par.Pool.fallbacks
            (if i = List.length runs - 1 then "" else ","))
        runs;
      output_string oc "  ]\n")
