(* dtsched: command-line front end.

   Subcommands:
     gen       generate HF/CCSD trace files
     run       run one heuristic on a trace and report metrics
     compare   compare every heuristic on a trace across capacities
     gantt     render a schedule as an ASCII Gantt chart
     workchar  workload characteristics of a trace directory (Figure 8)
     chem      run the numeric HF/CCSD kernels on a small molecule
     serve     online scheduling service (TCP or stdio)
     client    service client: interactive or trace-replay load generator *)

open Cmdliner

let cluster = Dt_ga.Cluster.cascade

(* ------------------------------------------------------------------ *)
(* shared arguments                                                     *)
(* ------------------------------------------------------------------ *)

let trace_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "t"; "trace" ] ~docv:"FILE" ~doc:"Trace file (see the gen command).")

(* A capacity factor must be a positive finite multiple of m_c; 0, negative
   values, nan and inf are cmdliner errors instead of reaching Fleet.run. *)
let positive_float_conv ~what =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0.0 -> Ok f
    | Some f -> Error (`Msg (Printf.sprintf "%s must be positive and finite, got %g" what f))
    | None -> Error (`Msg (Printf.sprintf "expected a number for %s, got %S" what s))
  in
  Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%g" f)

let factor_arg =
  Arg.(
    value
    & opt (positive_float_conv ~what:"the capacity factor") 1.5
    & info [ "c"; "capacity-factor" ] ~docv:"F"
        ~doc:"Memory capacity as a multiple of the trace's minimum requirement $(b,m_c).")

let heuristic_conv =
  let parse s =
    match Dt_core.Heuristic.of_name s with
    | Some h -> Ok h
    | None -> Error (`Msg (Printf.sprintf "unknown heuristic %S" s))
  in
  let print ppf h = Format.pp_print_string ppf (Dt_core.Heuristic.name h) in
  Arg.conv (parse, print)

let heuristic_arg =
  Arg.(
    value
    & opt heuristic_conv (Dt_core.Heuristic.Corrected Dt_core.Corrected_rules.OOSCMR)
    & info [ "H"; "heuristic" ] ~docv:"NAME"
        ~doc:
          "Heuristic: OOSIM, IOCMS, DOCPS, IOCCS, DOCCS, OS, GG, BP, LCMR, SCMR, MAMR, \
           OOLCMR, OOSCMR, OOMAMR or lp.$(i,k).")

let load_instance path ~factor =
  let trace = Dt_trace.Trace.load path in
  let m_c = Dt_trace.Trace.min_capacity trace in
  (trace, Dt_trace.Trace.to_instance trace ~capacity:(m_c *. factor))

(* --domains / -j: 0 = pick automatically; negative values are a hard
   cmdliner error instead of reaching Pool.create. *)
let domains_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some n ->
        Error
          (`Msg
            (Printf.sprintf
               "expected a domain count >= 0 (0 picks the size automatically), got %d" n))
    | None -> Error (`Msg (Printf.sprintf "expected an integer domain count, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Resolve -j into an optional pool; [Some 0] means "size automatically",
   which reads DTSCHED_DOMAINS — an invalid value there surfaces as
   [Invalid_argument] from the pool and is turned into a clean cmdliner
   error rather than an uncaught exception. *)
let with_optional_pool domains f =
  match domains with
  | None -> Ok (f None)
  | Some n -> (
      match
        if n = 0 then Dt_par.Pool.with_pool (fun pool -> f (Some pool))
        else Dt_par.Pool.with_pool ~num_domains:n (fun pool -> f (Some pool))
      with
      | result -> Ok result
      | exception Invalid_argument msg -> Error (`Msg msg))

(* ------------------------------------------------------------------ *)
(* gen                                                                  *)
(* ------------------------------------------------------------------ *)

let gen kernel out traces nbf seed =
  let lists =
    match kernel with
    | `Hf -> Dt_chem.Workload.hf_trace_set ~seed ~cluster ~nbf ()
    | `Ccsd -> Dt_chem.Workload.ccsd_trace_set ~seed ~cluster ~n_occ:29 ~n_virt:420 ()
  in
  let prefix = match kernel with `Hf -> "hf" | `Ccsd -> "ccsd" in
  let set = Dt_trace.Trace.of_task_lists ~prefix lists in
  let set = Array.sub set 0 (min traces (Array.length set)) in
  let paths = Dt_trace.Trace.save_set ~dir:out ~prefix set in
  Printf.printf "wrote %d traces under %s\n" (List.length paths) out

let gen_cmd =
  let kernel =
    Arg.(
      value
      & opt (enum [ ("hf", `Hf); ("ccsd", `Ccsd) ]) `Hf
      & info [ "k"; "kernel" ] ~docv:"KERNEL" ~doc:"hf or ccsd.")
  in
  let out =
    Arg.(value & opt string "traces" & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let traces =
    Arg.(value & opt int 150 & info [ "n"; "traces" ] ~docv:"N" ~doc:"Number of process traces.")
  in
  let nbf =
    Arg.(value & opt int 3000 & info [ "nbf" ] ~docv:"N" ~doc:"Basis functions (HF).")
  in
  let seed = Arg.(value & opt int 20190805 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate chemistry-kernel trace files")
    Term.(const gen $ kernel $ out $ traces $ nbf $ seed)

(* ------------------------------------------------------------------ *)
(* run                                                                  *)
(* ------------------------------------------------------------------ *)

let run_one trace_path heuristic factor =
  let trace, instance = load_instance trace_path ~factor in
  let sched = Dt_core.Heuristic.run heuristic instance in
  let m = Dt_core.Metrics.evaluate instance sched in
  Printf.printf "trace %s: %d tasks, m_c = %g, C = %g\n" trace.Dt_trace.Trace.name
    (Dt_trace.Trace.size trace)
    (Dt_trace.Trace.min_capacity trace)
    instance.Dt_core.Instance.capacity;
  Format.printf "heuristic %s: %a@." (Dt_core.Heuristic.name heuristic) Dt_core.Metrics.pp m;
  match Dt_core.Schedule.check sched with
  | Ok () -> ()
  | Error v ->
      Printf.eprintf "INVALID SCHEDULE: %s\n" (Dt_core.Schedule.violation_to_string v);
      exit 2

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run one heuristic on a trace")
    Term.(const run_one $ trace_arg $ heuristic_arg $ factor_arg)

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

let compare_all trace_path factors with_lp =
  let heuristics =
    if with_lp then Dt_core.Heuristic.all_with_lp ~k:[ 3; 4 ] else Dt_core.Heuristic.all
  in
  let header = "heuristic" :: List.map (fun f -> Printf.sprintf "C=%gm_c" f) factors in
  let rows =
    List.map
      (fun h ->
        Dt_core.Heuristic.name h
        :: List.map
             (fun factor ->
               let _, instance = load_instance trace_path ~factor in
               let sched = Dt_core.Heuristic.run ~lp_node_limit:500 h instance in
               Dt_report.Table.fmt_ratio (Dt_core.Metrics.ratio instance sched))
             factors)
      heuristics
  in
  Dt_report.Table.print ~header rows

let compare_cmd =
  let factors =
    Arg.(
      value
      & opt (list float) [ 1.0; 1.25; 1.5; 1.75; 2.0 ]
      & info [ "factors" ] ~docv:"F,F,..." ~doc:"Capacity factors (multiples of m_c).")
  in
  let with_lp =
    Arg.(value & flag & info [ "with-lp" ] ~doc:"Include the (slow) lp.3 and lp.4 heuristics.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all heuristics on a trace")
    Term.(const compare_all $ trace_arg $ factors $ with_lp)

(* ------------------------------------------------------------------ *)
(* gantt                                                                *)
(* ------------------------------------------------------------------ *)

let gantt trace_path heuristic factor head width =
  let trace, _ = load_instance trace_path ~factor in
  let tasks = trace.Dt_trace.Trace.tasks in
  let tasks = match head with None -> tasks | Some n -> List.filteri (fun i _ -> i < n) tasks in
  let m_c =
    List.fold_left (fun a (t : Dt_core.Task.t) -> Float.max a t.Dt_core.Task.mem) 0.0 tasks
  in
  let instance = Dt_core.Instance.make_keep_ids ~capacity:(m_c *. factor) tasks in
  let sched = Dt_core.Heuristic.run heuristic instance in
  Printf.printf "%s on %s (first %d tasks), C = %g:\n" (Dt_core.Heuristic.name heuristic)
    trace.Dt_trace.Trace.name (List.length tasks) instance.Dt_core.Instance.capacity;
  Dt_report.Gantt.print ~width sched

let gantt_cmd =
  let head =
    Arg.(
      value & opt (some int) (Some 30)
      & info [ "head" ] ~docv:"N" ~doc:"Only schedule the first N tasks (default 30).")
  in
  let width =
    Arg.(value & opt int 100 & info [ "width" ] ~docv:"COLS" ~doc:"Chart width in characters.")
  in
  Cmd.v
    (Cmd.info "gantt" ~doc:"Render a schedule as an ASCII Gantt chart")
    Term.(const gantt $ trace_arg $ heuristic_arg $ factor_arg $ head $ width)

(* ------------------------------------------------------------------ *)
(* workchar                                                             *)
(* ------------------------------------------------------------------ *)

let workchar dir prefix =
  let set = Dt_trace.Trace.load_set ~dir ~prefix in
  if Array.length set = 0 then begin
    Printf.eprintf "no %s-p*.trace files under %s\n" prefix dir;
    exit 1
  end;
  let chars = Dt_trace.Workchar.of_set set in
  let header = [ "trace"; "tasks"; "comm/OMIM"; "comp/OMIM"; "max"; "sum"; "m_c" ] in
  let rows =
    Array.to_list
      (Array.map
         (fun c ->
           [
             c.Dt_trace.Workchar.name;
             string_of_int c.Dt_trace.Workchar.tasks;
             Dt_report.Table.fmt_ratio c.Dt_trace.Workchar.norm_comm;
             Dt_report.Table.fmt_ratio c.Dt_trace.Workchar.norm_comp;
             Dt_report.Table.fmt_ratio c.Dt_trace.Workchar.norm_max;
             Dt_report.Table.fmt_ratio c.Dt_trace.Workchar.norm_sum;
             Dt_report.Table.fmt_g c.Dt_trace.Workchar.m_c;
           ])
         chars)
  in
  Dt_report.Table.print ~header rows

let workchar_cmd =
  let dir =
    Arg.(value & opt dir "traces" & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Trace directory.")
  in
  let prefix =
    Arg.(value & opt string "hf" & info [ "p"; "prefix" ] ~docv:"P" ~doc:"Trace prefix (hf/ccsd).")
  in
  Cmd.v
    (Cmd.info "workchar" ~doc:"Workload characteristics of saved traces (Figure 8)")
    Term.(const workchar $ dir $ prefix)

(* ------------------------------------------------------------------ *)
(* recommend                                                            *)
(* ------------------------------------------------------------------ *)

let recommend trace_path factor =
  let trace, instance = load_instance trace_path ~factor in
  let d = Dt_core.Advisor.diagnose instance in
  Printf.printf "trace %s (%d tasks, C = %g):\n%s\n" trace.Dt_trace.Trace.name
    (Dt_trace.Trace.size trace) instance.Dt_core.Instance.capacity
    (Dt_core.Advisor.explain d);
  let sched = Dt_core.Heuristic.run d.Dt_core.Advisor.recommendation instance in
  Printf.printf "achieved ratio: %s\n"
    (Dt_report.Table.fmt_ratio (Dt_core.Metrics.ratio instance sched))

let recommend_cmd =
  Cmd.v
    (Cmd.info "recommend" ~doc:"Recommend a heuristic (Table 6 of the paper as code)")
    Term.(const recommend $ trace_arg $ factor_arg)

(* ------------------------------------------------------------------ *)
(* svg                                                                  *)
(* ------------------------------------------------------------------ *)

let svg trace_path heuristic factor head out =
  let trace, _ = load_instance trace_path ~factor in
  let tasks = trace.Dt_trace.Trace.tasks in
  let tasks = match head with None -> tasks | Some n -> List.filteri (fun i _ -> i < n) tasks in
  let m_c =
    List.fold_left (fun a (t : Dt_core.Task.t) -> Float.max a t.Dt_core.Task.mem) 0.0 tasks
  in
  let instance = Dt_core.Instance.make_keep_ids ~capacity:(m_c *. factor) tasks in
  let sched = Dt_core.Heuristic.run heuristic instance in
  Dt_report.Svg.save ~path:out sched;
  Printf.printf "wrote %s (%s, %d tasks, makespan %g)\n" out
    (Dt_core.Heuristic.name heuristic) (List.length tasks)
    (Dt_core.Schedule.makespan sched)

let svg_cmd =
  let head =
    Arg.(
      value & opt (some int) (Some 30)
      & info [ "head" ] ~docv:"N" ~doc:"Only schedule the first N tasks (default 30).")
  in
  let out =
    Arg.(value & opt string "schedule.svg" & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output SVG.")
  in
  Cmd.v
    (Cmd.info "svg" ~doc:"Render a schedule as an SVG Gantt chart")
    Term.(const svg $ trace_arg $ heuristic_arg $ factor_arg $ head $ out)

(* ------------------------------------------------------------------ *)
(* fleet                                                                *)
(* ------------------------------------------------------------------ *)

(* Parallel-run health: worker count plus the pool's job/fallback
   counters. *)
let pool_stats_line pool =
  let stats = Dt_par.Pool.stats pool in
  Printf.printf "pool: workers=%d jobs=%d fallbacks=%d\n"
    (Dt_par.Pool.num_domains pool)
    stats.Dt_par.Pool.jobs stats.Dt_par.Pool.fallbacks

let fleet dir prefix factor domains =
  let traces = Dt_trace.Trace.load_set ~dir ~prefix in
  if Array.length traces = 0 then begin
    Printf.eprintf "no %s-p*.trace files under %s\n" prefix dir;
    exit 1
  end;
  let run_policy pool policy = Dt_trace.Fleet.run ~capacity_factor:factor ?pool policy traces in
  Result.map
    (fun (submission, portfolio, pool_stats) ->
      let row name (o : Dt_trace.Fleet.outcome) =
        [
          name;
          Printf.sprintf "%.6g" o.Dt_trace.Fleet.application_makespan;
          Dt_report.Table.fmt_ratio o.Dt_trace.Fleet.mean_ratio;
          Dt_report.Table.fmt_ratio o.Dt_trace.Fleet.worst_ratio;
          Printf.sprintf "%.2fx" (Dt_trace.Fleet.speedup_over_submission o ~submission);
        ]
      in
      Dt_report.Table.print
        ~header:[ "policy"; "app makespan"; "mean ratio"; "worst ratio"; "speedup" ]
        [ row "submission order" submission; row "portfolio" portfolio ];
      Option.iter (fun print -> print ()) pool_stats)
    (with_optional_pool domains (fun pool ->
         let submission =
           run_policy pool
             (Dt_trace.Fleet.Fixed (Dt_core.Heuristic.Static Dt_core.Static_rules.OS))
         in
         let portfolio = run_policy pool (Dt_trace.Fleet.Portfolio Dt_core.Heuristic.all) in
         (* snapshot the counters before the pool is shut down, print after
            the table *)
         ( submission,
           portfolio,
           Option.map
             (fun pool ->
               let stats = Dt_par.Pool.stats pool in
               let workers = Dt_par.Pool.num_domains pool in
               fun () ->
                 Printf.printf "pool: workers=%d jobs=%d fallbacks=%d\n" workers
                   stats.Dt_par.Pool.jobs stats.Dt_par.Pool.fallbacks)
             pool )))

let fleet_cmd =
  let dir =
    Arg.(value & opt dir "traces" & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Trace directory.")
  in
  let prefix =
    Arg.(value & opt string "hf" & info [ "p"; "prefix" ] ~docv:"P" ~doc:"Trace prefix.")
  in
  let domains =
    Arg.(
      value
      & opt (some domains_conv) None
      & info [ "j"; "domains" ]
          ~docv:"N"
          ~doc:
            "Run the per-process schedulers on a pool of $(docv) domains (0 = \
             pick automatically from DTSCHED_DOMAINS or the host's core \
             count). Without this option the fleet runs sequentially.")
  in
  Cmd.v
    (Cmd.info "fleet" ~doc:"Whole-application comparison across all process traces")
    Term.(term_result (const fleet $ dir $ prefix $ factor_arg $ domains))

(* ------------------------------------------------------------------ *)
(* cluster                                                              *)
(* ------------------------------------------------------------------ *)

let mode_conv =
  let parse s =
    match Dt_cluster.Link_sim.mode_of_name s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown link mode %S (fcfs or ps)" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Dt_cluster.Link_sim.mode_name m))

let cluster dir prefix factor domains nodes units links bandwidth node_mem mode =
  let traces = Dt_trace.Trace.load_set ~dir ~prefix in
  if Array.length traces = 0 then begin
    Printf.eprintf "no %s-p*.trace files under %s\n" prefix dir;
    exit 1
  end;
  let max_mc = Array.fold_left (fun a t -> Float.max a (Dt_trace.Trace.min_capacity t)) 0.0 traces in
  let node_mem =
    match node_mem with
    | Some m -> m
    | None ->
        (* auto: the memory the resident processes would have had on private
           machines, floored so the largest single task always fits *)
        let total_mc =
          Array.fold_left (fun a t -> a +. Dt_trace.Trace.min_capacity t) 0.0 traces
        in
        Float.max (factor *. max_mc) (factor *. total_mc /. float_of_int nodes)
  in
  if node_mem < max_mc then
    Printf.eprintf "warning: node memory %g below the largest m_c %g; expect failures\n"
      node_mem max_mc;
  let topo =
    Dt_cluster.Topology.shared ~nodes ~units_per_node:units ~links_per_node:links ~bandwidth
      ~node_mem ()
  in
  let policy = Dt_trace.Fleet.Portfolio Dt_core.Heuristic.all in
  match
    with_optional_pool domains (fun pool ->
        let run strategy =
          Dt_cluster.Cluster.run ~capacity_factor:factor ?pool
            ~config:{ Dt_cluster.Cluster.default_config with mode; strategy }
            topo policy traces
        in
        let greedy = run Dt_cluster.Balancer.Greedy in
        let diffusive = run Dt_cluster.Balancer.Diffusive in
        let util (r : Dt_cluster.Link_sim.result) =
          let u = Dt_cluster.Link_sim.utilisation r in
          let mean =
            Array.fold_left (fun a (_, _, x) -> a +. x) 0.0 u
            /. float_of_int (max 1 (Array.length u))
          in
          let worst = Array.fold_left (fun a (_, _, x) -> Float.max a x) 0.0 u in
          (mean, worst)
        in
        let independent = greedy.Dt_cluster.Cluster.independent in
        let row name (r : Dt_cluster.Link_sim.result) migrations =
          let mean, worst = util r in
          [
            name;
            Printf.sprintf "%.6g" r.Dt_cluster.Link_sim.makespan;
            Printf.sprintf "%.2fx"
              (independent.Dt_cluster.Link_sim.makespan /. r.Dt_cluster.Link_sim.makespan);
            string_of_int migrations;
            Printf.sprintf "%.0f%%" (100.0 *. mean);
            Printf.sprintf "%.0f%%" (100.0 *. worst);
          ]
        in
        Printf.printf
          "%d traces on %d node%s x %d unit%s (%d link%s/node, bandwidth %g, node memory %g), \
           %s links\n"
          (Array.length traces) nodes
          (if nodes = 1 then "" else "s")
          units
          (if units = 1 then "" else "s")
          links
          (if links = 1 then "" else "s")
          bandwidth node_mem
          (Dt_cluster.Link_sim.mode_name mode);
        Dt_report.Table.print
          ~header:
            [ "scheduling"; "app makespan"; "speedup"; "migrations"; "mean link"; "max link" ]
          [
            row "independent" independent 0;
            row "cooperative greedy" greedy.Dt_cluster.Cluster.cooperative
              greedy.Dt_cluster.Cluster.migrations;
            row "cooperative diffusive" diffusive.Dt_cluster.Cluster.cooperative
              diffusive.Dt_cluster.Cluster.migrations;
          ];
        Option.iter pool_stats_line pool)
  with
  | Ok () -> Ok ()
  | Error _ as e -> e
  | exception Invalid_argument msg -> Error (`Msg msg)

let cluster_cmd =
  let dir =
    Arg.(value & opt dir "traces" & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Trace directory.")
  in
  let prefix =
    Arg.(value & opt string "hf" & info [ "p"; "prefix" ] ~docv:"P" ~doc:"Trace prefix.")
  in
  let domains =
    Arg.(
      value
      & opt (some domains_conv) None
      & info [ "j"; "domains" ] ~docv:"N"
          ~doc:
            "Plan the per-process schedules on a pool of $(docv) domains (0 = \
             pick automatically).")
  in
  let pos_int_conv ~what =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some n -> Error (`Msg (Printf.sprintf "%s must be >= 1, got %d" what n))
      | None -> Error (`Msg (Printf.sprintf "expected an integer for %s, got %S" what s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let nodes =
    Arg.(
      value
      & opt (pos_int_conv ~what:"the node count") 4
      & info [ "nodes" ] ~docv:"N" ~doc:"Cluster nodes.")
  in
  let units =
    Arg.(
      value
      & opt (pos_int_conv ~what:"the unit count") 2
      & info [ "units" ] ~docv:"U" ~doc:"Processing units per node.")
  in
  let links =
    Arg.(
      value
      & opt (pos_int_conv ~what:"the link count") 1
      & info [ "links" ] ~docv:"L"
          ~doc:"Shared links (NICs) per node; units are wired round-robin.")
  in
  let bandwidth =
    Arg.(
      value
      & opt (positive_float_conv ~what:"the link bandwidth") 1.0
      & info [ "bandwidth" ] ~docv:"B"
          ~doc:"Link bandwidth relative to the paper's private link.")
  in
  let node_mem =
    Arg.(
      value
      & opt (some (positive_float_conv ~what:"the node memory")) None
      & info [ "node-mem" ] ~docv:"M"
          ~doc:
            "Shared memory capacity per node (default: the capacity the \
             resident processes would have had on private machines).")
  in
  let mode =
    Arg.(
      value
      & opt mode_conv Dt_cluster.Link_sim.Fcfs
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Shared-link contention model: $(b,fcfs) serves one transfer at a \
             time in request order, $(b,ps) fair-shares the bandwidth among \
             concurrent transfers.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Cooperative multi-unit scheduling on a shared-link topology (vs independent)")
    Term.(
      term_result
        (const cluster $ dir $ prefix $ factor_arg $ domains $ nodes $ units $ links
       $ bandwidth $ node_mem $ mode))

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

let serve host port port_file stdio backend max_conns max_output_bytes
    idle_timeout =
  if stdio then Ok (Dt_runtime.Server.serve_stdio ())
  else if backend = `Epoll && not Dt_runtime.Poller.epoll_available then
    Error (`Msg "--backend epoll: epoll is unavailable on this platform")
  else
    let uses_epoll =
      match backend with
      | `Epoll -> true
      | `Select -> false
      | `Auto -> Dt_runtime.Poller.epoll_available
    in
    (* epoll has no fd-number ceiling, so it earns a C10K-scale default;
       select must keep every fd number under FD_SETSIZE *)
    let max_conns =
      match max_conns with Some n -> n | None -> if uses_epoll then 4096 else 512
    in
    if max_conns < 1 then Error (`Msg "--max-conns must be positive")
    else if (not uses_epoll) && max_conns > Dt_runtime.Server.select_conn_limit
    then
      Error
        (`Msg
           (Printf.sprintf
              "--max-conns %d exceeds the select backend's limit of %d \
               (FD_SETSIZE %d): use --backend epoll"
              max_conns Dt_runtime.Server.select_conn_limit
              Dt_runtime.Poller.select_fd_limit))
    else if max_output_bytes < 1 then
      Error (`Msg "--max-output-bytes must be positive")
    else if Float.is_nan idle_timeout || idle_timeout < 0.0 then
      Error (`Msg "--idle-timeout must be non-negative (0 disables it)")
    else
      match Dt_runtime.Server.create ~host ~port () with
      | exception Unix.Unix_error (e, _, _) ->
          Error (`Msg (Printf.sprintf "cannot listen on %s:%d: %s" host port (Unix.error_message e)))
      | server ->
          let on_listen bound =
            Printf.printf "dtsched: listening on %s:%d (%s backend)\n%!" host
              bound
              (if uses_epoll then "epoll" else "select");
            match port_file with
            | None -> ()
            | Some path ->
                let oc = open_out path in
                Printf.fprintf oc "%d\n" bound;
                close_out oc
          in
          Ok
            (Dt_runtime.Server.run ~backend ~max_conns ~max_output_bytes
               ~idle_timeout ~on_listen server)

let serve_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port =
    Arg.(
      value & opt int 7464
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port to listen on (0 picks a free one).")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:"Write the bound port to $(docv) once listening (for scripts).")
  in
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ] ~doc:"Serve a single session over stdin/stdout instead of TCP.")
  in
  let backend =
    let backend_conv =
      let parse = function
        | "auto" -> Ok `Auto
        | "epoll" -> Ok `Epoll
        | "select" -> Ok `Select
        | s -> Error (`Msg (Printf.sprintf "unknown backend %S (auto/epoll/select)" s))
      in
      let print ppf k =
        Format.pp_print_string ppf
          (match k with `Auto -> "auto" | `Epoll -> "epoll" | `Select -> "select")
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt backend_conv `Auto
      & info [ "backend" ] ~docv:"NAME"
          ~doc:
            "Readiness backend for the event loop: $(b,epoll) (Linux; no \
             connection-count ceiling), $(b,select) (portable; every fd \
             number must stay under FD_SETSIZE), or $(b,auto) (epoll when \
             available). $(b,STATS) reports the backend in use.")
  in
  let max_conns =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Serve at most $(docv) simultaneous connections; beyond the limit \
             a connection is answered one $(b,ERR busy) line and closed. \
             Defaults to 4096 on the epoll backend and 512 on select; values \
             over the select backend's FD_SETSIZE-derived ceiling are \
             rejected.")
  in
  let max_output_bytes =
    Arg.(
      value
      & opt int (4 * 1024 * 1024)
      & info [ "max-output-bytes" ] ~docv:"BYTES"
          ~doc:
            "Bound one connection's pending (unread) output at $(docv) bytes: \
             reads from the peer pause once half the bound is pending, the \
             connection is dropped once the full bound is passed — output \
             nobody drains must not grow without limit.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 0.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Close connections with no traffic for $(docv) seconds (answered \
             one $(b,ERR timeout) line first; 0 disables the timeout).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Online scheduling service (newline-delimited protocol over TCP or stdio)")
    Term.(
      term_result
        (const serve $ host $ port $ port_file $ stdio $ backend $ max_conns
       $ max_output_bytes $ idle_timeout))

(* ------------------------------------------------------------------ *)
(* client                                                               *)
(* ------------------------------------------------------------------ *)

let policy_conv =
  let parse s =
    match Dt_runtime.Engine.policy_of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S (LCMR/SCMR/MAMR/OOLCMR/OOSCMR/OOMAMR)" s))
  in
  let print ppf p = Format.pp_print_string ppf (Dt_runtime.Engine.policy_name p) in
  Arg.conv (parse, print)

let client host port trace_path rate policy factor binary pipeline gc_stats =
  if pipeline < 1 then Error (`Msg "--pipeline must be positive")
  else
  match
    match Dt_runtime.Client.connect ~host ~port () with
    | conn -> Ok conn
    | exception Unix.Unix_error (e, _, _) ->
        Error (`Msg (Printf.sprintf "cannot connect to %s:%d: %s" host port (Unix.error_message e)))
  with
  | Error _ as e -> e
  | Ok conn ->
      Fun.protect
        ~finally:(fun () -> Dt_runtime.Client.close conn)
        (fun () ->
          match trace_path with
          | Some path ->
              (* load-generator mode: replay the trace at the given rate *)
              let trace = Dt_trace.Trace.load path in
              let r =
                Dt_runtime.Client.replay conn ~trace ~rate ~policy
                  ~capacity_factor:factor ~binary ~pipeline ()
              in
              Printf.printf
                "trace %s: %d tasks replayed at rate %g (policy %s, %s mode, \
                 pipeline %d)\n"
                trace.Dt_trace.Trace.name r.Dt_runtime.Client.submitted rate
                (Dt_runtime.Engine.policy_name policy)
                (if binary then "binary" else "text")
                pipeline;
              Printf.printf "  accepted %d, rejected %d\n" r.Dt_runtime.Client.accepted
                r.Dt_runtime.Client.rejected;
              Printf.printf "  online makespan  %.6g\n" r.Dt_runtime.Client.makespan;
              Printf.printf "  offline makespan %.6g (clairvoyant, arrivals at 0)\n"
                r.Dt_runtime.Client.offline_makespan;
              Printf.printf "  online/offline   %s\n"
                (Dt_report.Table.fmt_ratio
                   (if r.Dt_runtime.Client.offline_makespan > 0.0 then
                      r.Dt_runtime.Client.makespan /. r.Dt_runtime.Client.offline_makespan
                    else 1.0));
              Printf.printf "  throughput       %.0f req/s (wall %.3f s)\n"
                r.Dt_runtime.Client.requests_per_s r.Dt_runtime.Client.wall_s;
              Printf.printf
                "  latency          p50 %.3f ms, p99 %.3f ms, p99.9 %.3f ms\n"
                (1e3 *. r.Dt_runtime.Client.p50_latency_s)
                (1e3 *. r.Dt_runtime.Client.p99_latency_s)
                (1e3 *. r.Dt_runtime.Client.p999_latency_s);
              if gc_stats then begin
                let g = r.Dt_runtime.Client.gc in
                Printf.printf
                  "  gc (client)      minor_words %.0f, major_words %.0f\n"
                  g.Dt_runtime.Client.minor_words
                  g.Dt_runtime.Client.major_words;
                Printf.printf
                  "  gc (client)      minor_collections %d, major_collections %d\n"
                  g.Dt_runtime.Client.minor_collections
                  g.Dt_runtime.Client.major_collections
              end;
              Ok ()
          | None ->
              (* interactive mode: forward stdin lines, print responses *)
              let rec loop () =
                match input_line stdin with
                | exception End_of_file -> ()
                | line ->
                    List.iter print_endline (Dt_runtime.Client.request_line conn line);
                    flush stdout;
                    let upper = String.uppercase_ascii (String.trim line) in
                    if upper <> "QUIT" && upper <> "SHUTDOWN" then loop ()
              in
              Ok (loop ()))

let client_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let port =
    Arg.(value & opt int 7464 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let trace =
    Arg.(
      value
      & opt (some file) None
      & info [ "t"; "trace" ] ~docv:"FILE"
          ~doc:
            "Load-generator mode: replay this trace against the server (without \
             it, stdin is forwarded interactively).")
  in
  let rate =
    Arg.(
      value & opt float 1.0
      & info [ "r"; "rate" ] ~docv:"R"
          ~doc:
            "Arrival rate for the replay: task $(i,i) arrives at virtual time \
             $(i,i)/R (inf = clairvoyant, all tasks arrive at 0).")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv (Dt_runtime.Engine.Corrected Dt_core.Corrected_rules.OOSCMR)
      & info [ "H"; "policy" ] ~docv:"NAME"
          ~doc:"Online policy: LCMR, SCMR, MAMR, OOLCMR, OOSCMR or OOMAMR.")
  in
  let binary =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:
            "Replay in the length-prefixed binary framing (negotiated at \
             $(b,INIT); the text protocol stays the default). Interactive \
             mode switches by typing an $(b,INIT ... binary) line instead.")
  in
  let pipeline =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"K"
          ~doc:
            "Keep $(docv) submissions in flight per window during a replay; \
             with $(b,--binary) a window travels as one frame and the server \
             runs it as a single engine pass.")
  in
  let gc_stats =
    Arg.(
      value & flag
      & info [ "gc-stats" ]
          ~doc:
            "After a replay, print the client process's GC activity over \
             the run (minor/major words allocated and collection counts) — \
             the cost of driving the load, next to the server-side \
             $(b,minor_words_per_req) that $(b,STATS) reports.")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Scheduling-service client and trace-replay load generator")
    Term.(
      term_result
        (const client $ host $ port $ trace $ rate $ policy $ factor_arg
       $ binary $ pipeline $ gc_stats))

(* ------------------------------------------------------------------ *)
(* chem                                                                 *)
(* ------------------------------------------------------------------ *)

let chem molecule =
  let m =
    match molecule with
    | `H2 -> Dt_chem.Molecule.h2 ()
    | `Heh_plus -> Dt_chem.Molecule.heh_plus ()
  in
  let r = Dt_chem.Ccsd.run m in
  let scf = r.Dt_chem.Ccsd.scf in
  Printf.printf "%s: RHF energy    = %.6f hartree (%d iterations)\n" m.Dt_chem.Molecule.name
    scf.Dt_chem.Scf.energy scf.Dt_chem.Scf.iterations;
  Printf.printf "%s: CCSD corr     = %.6f hartree (%d iterations)\n" m.Dt_chem.Molecule.name
    r.Dt_chem.Ccsd.correlation_energy r.Dt_chem.Ccsd.iterations;
  Printf.printf "%s: CCSD total    = %.6f hartree\n" m.Dt_chem.Molecule.name
    r.Dt_chem.Ccsd.total_energy

let chem_cmd =
  let molecule =
    Arg.(
      value
      & opt (enum [ ("h2", `H2); ("heh+", `Heh_plus) ]) `H2
      & info [ "m"; "molecule" ] ~docv:"MOL" ~doc:"h2 or heh+.")
  in
  Cmd.v
    (Cmd.info "chem" ~doc:"Run the numeric HF and CCSD kernels")
    Term.(const chem $ molecule)

let () =
  let doc = "data-transfer scheduling for communication/computation overlap" in
  let info = Cmd.info "dtsched" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd; run_cmd; compare_cmd; recommend_cmd; gantt_cmd; svg_cmd; fleet_cmd;
            cluster_cmd; workchar_cmd; chem_cmd; serve_cmd; client_cmd;
          ]))
