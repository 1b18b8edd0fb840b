(* Entry point.

     perfbench.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]
     perfbench.exe loadgen --port P --dir D --prefix hf|ccsd --seconds S --out FILE
     perfbench.exe setup --workload W --dir D

   [run] makes the workload's inputs from the seed, measures for about S
   seconds, checks the program's outputs, and prints the end-to-end
   metrics (or, with --trace 1, the per-layer ones) as readable lines
   followed by one JSON line. [loadgen] is the load generator's own
   process, and [setup] times one set-up in a fresh process. *)

let default_seed = 20190805
let workloads = [ "fleet-hf"; "cached-ccsd"; "serve-hf" ]

(* The metrics of BENCHMARK.json. Every workload's untraced run prints
   exactly the end-to-end ones, and its traced run exactly the per-layer
   ones. *)
let end_to_end = [ "setup_s"; "schedule_s"; "makespan_ratio"; "peak_rss_mb" ]

let per_layer =
  [ "trace.load_s"; "core.static_us_per_task"; "core.gg_us_per_task"; "core.bp_us_per_task";
    "core.dynamic_us_per_task"; "core.corrected_us_per_task"; "core.johnson_us_per_task";
    "core.sim_share"; "core.minor_words_per_task"; "par.seq_pass_s"; "par.speedup"; "par.jobs";
    "par.fallbacks"; "par.steals"; "par.minor_collections"; "cached.lru_us_per_task";
    "cached.min_refetch_us_per_task"; "cached.sim_share"; "cached.minor_words_per_task";
    "residency.hits"; "residency.misses"; "residency.evictions"; "residency.hit_rate";
    "protocol.text_decode_us"; "protocol.binary_decode_us"; "session.submit_us";
    "engine.submit_us"; "engine.drain_ms"; "protocol.encode_us"; "protocol.poll_encode_ms";
    "server.rps"; "server.req_p50_us"; "server.req_p99_us"; "server.wire_us";
    "server.minor_words_per_req"; "session.minor_words_per_req"; "server.err_responses";
    "bench.tracing_overhead"; "host.calib_ms" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe run --workload fleet-hf|cached-ccsd|serve-hf [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

let rec options = function
  | [] -> []
  | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      (String.sub key 2 (String.length key - 2), value) :: options rest
  | _ -> usage ()

let get opts key conv ~default =
  match List.assoc_opt key opts with
  | None -> ( match default with Some d -> d | None -> usage ())
  | Some v -> ( match conv v with Some x -> x | None -> usage ())

(* Every layer, measured on the workload's own traces: the layers on the
   workload's path on all of them (the server for half the run), the
   others on a sample, so that every traced run reports every per-layer
   metric. The tracing overhead is that of the workload's own path. *)
let traced_layers r ~workload ~dir ~seconds ~spans =
  let prefix = Offline.prefix_of workload in
  Offline.report_load r ~workload ~dir;
  let traces, instances = Offline.load ~dir ~prefix in
  let all = (traces, instances) and sample k = (Offline.every k traces, Offline.every k instances) in
  let (core, _), par_s, cached, (inproc, _), server_s =
    match workload with
    | "fleet-hf" -> (all, seconds /. 4.0, sample 30, sample 10, 3.0)
    | "cached-ccsd" -> (all, seconds /. 10.0, all, all, 3.0)
    | _ -> (sample 5, seconds /. 10.0, sample 30, sample 10, seconds /. 2.0)
  in
  let core_o = Offline.portfolio_layers r ~spans ~traces:core ~seconds:par_s in
  let cached_o = Offline.cached_layers r ~spans ~traces:(fst cached) ~instances:(snd cached) in
  let tcp_median = Serve.server_layers r ~dir ~prefix ~seconds:server_s ~traces ~instances in
  let inproc_o = Inproc.measure r ~spans ~traces:inproc ~tcp_median in
  let overhead, detail =
    match workload with
    | "fleet-hf" -> (core_o, "traced portfolio pass without its replays / untraced")
    | "cached-ccsd" -> (cached_o, "traced Cached_rules pass without its replays / untraced")
    | _ -> (inproc_o, "traced in-process replay / untraced")
  in
  Report.metric r "bench.tracing_overhead" "ratio" overhead ~detail:("(" ^ detail ^ ")")

let run opts =
  let workload = get opts "workload" Option.some ~default:None in
  if not (List.mem workload workloads) then usage ();
  let seed = get opts "seed" int_of_string_opt ~default:(Some default_seed) in
  let seconds = get opts "seconds" float_of_string_opt ~default:(Some 25.0) in
  let trace =
    get opts "trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
      ~default:(Some false)
  in
  if not (seconds > 0.0) then usage ();
  let pool_workers = if workload = "fleet-hf" || trace then Offline.pool_workers () else 0 in
  let stamp = Prov.stamp ~workload ~seed ~trace ~pool_workers in
  Report.say "perfbench %s"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) stamp));
  let dir = Filename.concat Work.out_dir (Printf.sprintf "inputs-%d" (Unix.getpid ())) in
  Work.mkdir_p dir;
  Fun.protect ~finally:(fun () ->
      Work.reap_children ();
      Work.rm_rf dir)
  @@ fun () ->
  if workload = "cached-ccsd" then
    Work.generate_ccsd ~traces:Work.ccsd_processes ~keep:Work.ccsd_traces ~seed ~dir
  else Work.generate ~kernel:"hf" ~traces:Work.hf_traces ~seed ~dir;
  let r = Report.create () in
  let spans = Spans.create () in
  let calib_before = Work.calibrate_ms () in
  (match (workload, trace) with
  | _, true -> traced_layers r ~workload ~dir ~seconds ~spans
  | "fleet-hf", false -> Offline.fleet_hf r ~dir ~seconds
  | "cached-ccsd", false -> Offline.cached_ccsd r ~dir ~seconds
  | _, false -> Serve.serve_hf r ~dir ~seconds);
  if workload <> "serve-hf" && not trace then
    Report.metric r "peak_rss_mb" "MB" (Work.peak_rss_mb "self")
      ~detail:"(VmHWM of the benchmark process, which loads but does not generate the traces)";
  let calib_after = Work.calibrate_ms () in
  let calib = Printf.sprintf "(before %.1f ms, after %.1f ms)" calib_before calib_after in
  if trace then begin
    Report.metric r "host.calib_ms" "ms" ((calib_before +. calib_after) /. 2.0) ~detail:calib;
    let path =
      Filename.concat Work.out_dir (Printf.sprintf "spans-%s-seed%d.json" workload seed)
    in
    let all = Spans.spans spans in
    List.iter
      (fun (name, t) ->
        Report.say "  span %-26s n=%-7d total %9.4f s  self %9.4f s" name t.Spans.count
          t.Spans.total t.Spans.self)
      (Spans.totals all);
    Spans.write_chrome path ~stamp all;
    Report.say "  %d spans written to %s" (Array.length all) path
  end
  else Report.say "  host.calib_ms %s" calib;
  Report.finish r ~expected:(if trace then per_layer else end_to_end)

let setup opts =
  Offline.setup_probe
    ~workload:(get opts "workload" Option.some ~default:None)
    ~dir:(get opts "dir" Option.some ~default:None);
  0

let loadgen opts =
  let port = get opts "port" int_of_string_opt ~default:None in
  let dir = get opts "dir" Option.some ~default:None in
  let prefix = get opts "prefix" Option.some ~default:None in
  let seconds = get opts "seconds" float_of_string_opt ~default:None in
  let out = get opts "out" Option.some ~default:None in
  Loadgen.main ~port ~dir ~prefix ~seconds ~out;
  0

let () =
  (* a run stopped from outside still stops its server and load generator *)
  List.iter
    (fun signal ->
      Sys.set_signal signal (Sys.Signal_handle (fun _ -> failwith "stopped by a signal")))
    [ Sys.sigterm; Sys.sigint ];
  let code =
    match Array.to_list Sys.argv with
    | _ :: "run" :: rest -> (
        try run (options rest)
        with e ->
          Work.reap_children ();
          Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
          2)
    | _ :: "loadgen" :: rest -> loadgen (options rest)
    | _ :: "setup" :: rest -> setup (options rest)
    | _ -> usage ()
  in
  exit code
