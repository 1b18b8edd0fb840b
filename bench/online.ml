(* Online runtime experiment (beyond the paper): how much does not
   knowing the future cost, and how fast is the service loop?

   Part 1 — arrival-rate sweep: the online engine (tasks become visible
   at their arrival times) against the offline clairvoyant schedule of
   the same policy (every task known at time 0), on HF traces. Load is
   expressed relative to the trace's own service rate: at load l, task i
   arrives at i * mean_comm / l, so l >> 1 means tasks pile up faster
   than the link drains them (the clairvoyant limit) and l << 1 means
   the engine starves between arrivals and the makespan is dominated by
   the last arrival, not by scheduling quality.

   Part 2 — service throughput: requests/s and per-request p50/p99
   latency of the protocol loop, both in-process (Session.handle_line:
   the parsing + engine cost alone) and over a real TCP loopback socket
   (adds the syscall round trip). Results land in BENCH_runtime.json
   with git commit + hostname stamps. *)

open Dt_core
module Engine = Dt_runtime.Engine

let loads = [ 0.25; 0.5; 1.0; 2.0; 4.0; Float.infinity ]

let policies =
  [
    Engine.Dynamic Dynamic_rules.LCMR;
    Engine.Corrected Corrected_rules.OOSCMR;
  ]

let online_makespan policy ~capacity ~spacing tasks =
  let engine = Engine.create ~policy ~capacity () in
  List.iteri
    (fun i task ->
      let arrival = if spacing = 0.0 then 0.0 else Float.of_int i *. spacing in
      match Engine.submit engine ~arrival task with
      | Engine.Accepted -> ()
      | _ -> failwith "online bench: submission rejected")
    tasks;
  ignore (Engine.drain engine);
  Engine.makespan engine

(* mean ratio online/offline over the trace set, at one load level *)
let sweep_point policy traces ~factor ~load =
  let ratios =
    Array.map
      (fun trace ->
        let tasks = trace.Dt_trace.Trace.tasks in
        let capacity = Dt_trace.Trace.min_capacity trace *. factor in
        let mean_comm =
          List.fold_left (fun a (t : Task.t) -> a +. t.Task.comm) 0.0 tasks
          /. Float.of_int (max 1 (List.length tasks))
        in
        let spacing = if load = Float.infinity then 0.0 else mean_comm /. load in
        let online = online_makespan policy ~capacity ~spacing tasks in
        let offline = online_makespan policy ~capacity ~spacing:0.0 tasks in
        if offline > 0.0 then online /. offline else 1.0)
      traces
  in
  Dt_stats.Descriptive.mean ratios

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float ((Float.of_int (n - 1) *. q) +. 0.5)))

(* The committed BENCH_runtime.json is the previous PR's measurement:
   its mode_sweep points are this run's performance baseline for the
   zero_copy_not_slower gate. Scraped with a line-oriented field reader
   (each sweep point is one JSON object per line, exactly as this file
   writes them) before write_artifact truncates the file — the benches
   carry no JSON dependency. *)
let scrape_field line key =
  let marker = Printf.sprintf "\"%s\":" key in
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = marker then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let first = ref start in
      while !first < n && line.[!first] = ' ' do incr first done;
      let stop = ref !first in
      while
        !stop < n
        && (match line.[!stop] with ',' | '}' | ']' -> false | _ -> true)
      do
        incr stop
      done;
      let raw = String.trim (String.sub line !first (!stop - !first)) in
      let raw =
        if
          String.length raw >= 2
          && raw.[0] = '"'
          && raw.[String.length raw - 1] = '"'
        then String.sub raw 1 (String.length raw - 2)
        else raw
      in
      if raw = "" then None else Some raw

let scrape_float line key = Option.bind (scrape_field line key) float_of_string_opt
let scrape_int line key = Option.bind (scrape_field line key) int_of_string_opt

let load_mode_sweep_baseline path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let points = ref [] in
      let in_sweep = ref false in
      (try
         while true do
           let line = input_line ic in
           if !in_sweep then
             if String.trim line = "]," || String.trim line = "]" then
               raise Exit
             else (
               match
                 ( scrape_int line "clients",
                   scrape_field line "mode",
                   scrape_int line "pipeline",
                   scrape_float line "requests_per_s" )
               with
               | Some c, Some m, Some p, Some r ->
                   points := ((c, m = "binary", p), r) :: !points
               | _ -> ())
           else if scrape_field line "mode_sweep" <> None then in_sweep := true
         done
       with End_of_file | Exit -> ());
      close_in ic;
      List.rev !points

(* Throughput of the in-process protocol loop: SUBMIT-heavy session.
   Also samples Gc.minor_words around the request loop: the
   allocation-per-request figure the CI budget gate holds the hot path
   to (deterministic, unlike the forked TCP numbers). *)
let session_throughput ~requests =
  let session = Dt_runtime.Session.create () in
  ignore (Dt_runtime.Session.handle_line session "INIT 1000 OOSCMR 1000000");
  let latencies = Array.make requests 0.0 in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to requests - 1 do
    let line = Printf.sprintf "SUBMIT t%d 1.5 0.5 1.5 %d" i i in
    let s0 = Unix.gettimeofday () in
    ignore (Dt_runtime.Session.handle_line session line);
    latencies.(i) <- Unix.gettimeofday () -. s0
  done;
  let minor_words = Gc.minor_words () -. w0 in
  ignore (Dt_runtime.Session.handle_line session "DRAIN");
  let wall = Unix.gettimeofday () -. t0 in
  Array.sort Float.compare latencies;
  ( Float.of_int requests /. wall,
    percentile latencies 0.5,
    percentile latencies 0.99,
    minor_words /. Float.of_int requests )

(* Same shape over a real TCP loopback: server on its own domain. The
   STATS probe before DRAIN reads back the server's own
   minor_words_per_req gauge (the full event-loop path: parse, batch,
   encode-into-iobuf). *)
let tcp_throughput ~requests =
  let server = Dt_runtime.Server.create ~port:0 () in
  let port = Dt_runtime.Server.port server in
  let domain = Domain.spawn (fun () -> Dt_runtime.Server.run server) in
  let conn = Dt_runtime.Client.connect ~port () in
  let finish () =
    (try ignore (Dt_runtime.Client.request conn Dt_runtime.Protocol.Shutdown)
     with Failure _ -> ());
    Dt_runtime.Client.close conn;
    Domain.join domain
  in
  Fun.protect ~finally:finish (fun () ->
      ignore
        (Dt_runtime.Client.request conn
           (Dt_runtime.Protocol.Init
              { capacity = 1000.0; policy = List.hd Engine.all_policies; queue_limit = Some 1000000; binary = false }));
      let latencies = Array.make requests 0.0 in
      let t0 = Unix.gettimeofday () in
      for i = 0 to requests - 1 do
        let req =
          Dt_runtime.Protocol.Submit
            { label = Printf.sprintf "t%d" i; comm = 1.5; comp = 0.5; mem = 1.5;
              arrival = Float.of_int i }
        in
        let s0 = Unix.gettimeofday () in
        ignore (Dt_runtime.Client.request conn req);
        latencies.(i) <- Unix.gettimeofday () -. s0
      done;
      let wall = Unix.gettimeofday () -. t0 in
      let server_mwpr =
        match Dt_runtime.Client.request conn Dt_runtime.Protocol.Stats with
        | line :: _ ->
            Dt_runtime.Client.response_field "minor_words_per_req" line
        | [] -> None
      in
      ignore (Dt_runtime.Client.request conn Dt_runtime.Protocol.Drain);
      Array.sort Float.compare latencies;
      ( Float.of_int requests /. wall,
        percentile latencies 0.5,
        percentile latencies 0.99,
        server_mwpr ))

(* Aggregate throughput of N concurrent clients against one server.
   Forked processes, not domains: each client and the server own their
   entire runtime, so the measurement reflects the server's
   multiplexing — not stop-the-world GC coupling between in-process
   load generators, which is what made the old domain-based variant
   report *less* aggregate throughput at 4 clients than at 1. Must run
   before this process spawns any domain (fork and live domains don't
   mix); Online.run orders its parts accordingly.
   [binary] negotiates the length-prefixed framing at INIT; [pipeline]
   keeps that many SUBMITs in flight per window (in binary mode one
   window is one frame, i.e. one engine pass on the server). Each
   request is charged its window's round trip. *)
let tcp_client_sweep ?(binary = false) ?(pipeline = 1) ~clients ~requests () =
  (* inherited channel buffers would be flushed once per child *)
  flush stdout;
  flush stderr;
  let server = Dt_runtime.Server.create ~port:0 () in
  let port = Dt_runtime.Server.port server in
  let server_pid =
    match Unix.fork () with
    | 0 ->
        (try Dt_runtime.Server.run server with _ -> ());
        exit 0
    | pid -> pid
  in
  let spawn_client i =
    let r, w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        Unix.close r;
        (try
           let conn = Dt_runtime.Client.connect ~port () in
           ignore
             (Dt_runtime.Client.request conn
                (Dt_runtime.Protocol.Init
                   {
                     capacity = 1000.0;
                     policy = List.hd Engine.all_policies;
                     queue_limit = Some 1000000;
                     binary;
                   }));
           let submits =
             List.init requests (fun k ->
                 Dt_runtime.Protocol.Submit
                   {
                     label = Printf.sprintf "c%d-%d" i k;
                     comm = 1.5;
                     comp = 0.5;
                     mem = 1.5;
                     arrival = Float.of_int k;
                   })
           in
           let latencies = Array.make requests 0.0 in
           let filled = ref 0 in
           let rec take k acc = function
             | rest when k = 0 -> (List.rev acc, rest)
             | [] -> (List.rev acc, [])
             | x :: tl -> take (k - 1) (x :: acc) tl
           in
           let rec windows = function
             | [] -> ()
             | pending ->
                 let window, rest = take pipeline [] pending in
                 let s0 = Unix.gettimeofday () in
                 ignore (Dt_runtime.Client.request_pipelined conn window);
                 let dt = Unix.gettimeofday () -. s0 in
                 List.iter
                   (fun _ ->
                     latencies.(!filled) <- dt;
                     incr filled)
                   window;
                 windows rest
           in
           windows submits;
           ignore (Dt_runtime.Client.request conn Dt_runtime.Protocol.Drain);
           Dt_runtime.Client.close conn;
           Array.sort Float.compare latencies;
           let oc = Unix.out_channel_of_descr w in
           Printf.fprintf oc "%.9f %.9f %.9f\n"
             (percentile latencies 0.5)
             (percentile latencies 0.99)
             (percentile latencies 0.999);
           flush oc
         with _ -> ());
        exit 0
    | pid ->
        Unix.close w;
        (pid, r)
  in
  let t0 = Unix.gettimeofday () in
  let children = List.init clients spawn_client in
  let percentiles =
    List.map
      (fun (pid, r) ->
        ignore (Unix.waitpid [] pid);
        let ic = Unix.in_channel_of_descr r in
        let line = try input_line ic with End_of_file | Sys_error _ -> "" in
        close_in ic;
        match String.split_on_char ' ' line with
        | [ p50; p99; p999 ] -> (
            match
              ( float_of_string_opt p50,
                float_of_string_opt p99,
                float_of_string_opt p999 )
            with
            | Some a, Some b, Some c -> (a, b, c)
            | _ -> (0.0, 0.0, 0.0))
        | _ -> (0.0, 0.0, 0.0))
      children
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match Dt_runtime.Client.connect ~port () with
  | conn ->
      (try ignore (Dt_runtime.Client.request conn Dt_runtime.Protocol.Shutdown)
       with Failure _ -> ());
      Dt_runtime.Client.close conn
  | exception Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] server_pid);
  let rps =
    if wall > 0.0 then Float.of_int (clients * requests) /. wall else 0.0
  in
  (* worst client percentiles: the honest tail across the whole fleet *)
  let p50 = List.fold_left (fun a (p, _, _) -> Float.max a p) 0.0 percentiles in
  let p99 = List.fold_left (fun a (_, p, _) -> Float.max a p) 0.0 percentiles in
  let p999 = List.fold_left (fun a (_, _, p) -> Float.max a p) 0.0 percentiles in
  (rps, p50, p99, p999)

(* C10K-style idle-population point: hold [connections] simultaneously
   open, silent connections against an epoll-backed server (forked, so
   this too can run before the parent spawns any domain) and, while they
   are all held open, run one more live session through INIT/SUBMIT/
   DRAIN plus a STATS probe on the very first idle socket. The fd
   *numbers* involved run far past FD_SETSIZE, so a select-backed server
   could not even represent this population — Server.run refuses
   max_conns this large on select. Returns [None] where epoll is
   unavailable (non-Linux hosts: the point is skipped, not faked). *)
let c10k_idle ~connections =
  if not Dt_runtime.Poller.epoll_available then None
  else begin
    flush stdout;
    flush stderr;
    let server = Dt_runtime.Server.create ~port:0 () in
    let port = Dt_runtime.Server.port server in
    let server_pid =
      match Unix.fork () with
      | 0 ->
          (try
             Dt_runtime.Server.run ~backend:`Epoll ~max_conns:(connections + 64)
               server
           with _ -> ());
          exit 0
      | pid -> pid
    in
    let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
    let idle = ref [] in
    let result =
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            !idle;
          (match Dt_runtime.Client.connect ~port () with
          | conn ->
              (try
                 ignore
                   (Dt_runtime.Client.request conn Dt_runtime.Protocol.Shutdown)
               with Failure _ -> ());
              Dt_runtime.Client.close conn
          | exception Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] server_pid))
        (fun () ->
          let t0 = Unix.gettimeofday () in
          for _ = 1 to connections do
            let fd = Unix.socket PF_INET SOCK_STREAM 0 in
            (try Unix.connect fd addr
             with e ->
               Unix.close fd;
               raise e);
            idle := fd :: !idle
          done;
          let established_s = Unix.gettimeofday () -. t0 in
          (* a live session through the held-open population *)
          let conn = Dt_runtime.Client.connect ~port () in
          let ok line = String.length line >= 2 && String.sub line 0 2 = "OK" in
          let round_trip_ok =
            Fun.protect
              ~finally:(fun () -> Dt_runtime.Client.close conn)
              (fun () ->
                let init =
                  Dt_runtime.Client.request conn
                    (Dt_runtime.Protocol.Init
                       {
                         capacity = 10.0;
                         policy = List.hd Engine.all_policies;
                         queue_limit = None;
                         binary = false;
                       })
                in
                let submit =
                  Dt_runtime.Client.request conn
                    (Dt_runtime.Protocol.Submit
                       {
                         label = "probe";
                         comm = 1.0;
                         comp = 0.5;
                         mem = 1.0;
                         arrival = 0.0;
                       })
                in
                let drain =
                  Dt_runtime.Client.request conn Dt_runtime.Protocol.Drain
                in
                List.for_all
                  (function line :: _ -> ok line | [] -> false)
                  [ init; submit; drain ])
          in
          (* one of the idle sockets answers too: they are served, not
             merely parked in an accept queue *)
          let probe_fd = List.nth !idle (connections - 1) in
          let stats_ok =
            try
              let n =
                Unix.write_substring probe_fd "STATS\n" 0 6
              in
              if n <> 6 then false
              else begin
                let buf = Bytes.create 256 in
                let got = Unix.read probe_fd buf 0 256 in
                got >= 2 && Bytes.sub_string buf 0 2 = "OK"
              end
            with Unix.Unix_error _ -> false
          in
          Some (established_s, round_trip_ok && stats_ok))
    in
    result
  end

let run () =
  Printf.printf "\n== online: arrival-aware engine vs clairvoyant offline ==\n\n";
  let traces = Lazy.force Data.hf_traces in
  let traces = Array.sub traces 0 (min (if Data.fast then 5 else 20) (Array.length traces)) in
  let factor = 1.5 in
  let header =
    "policy"
    :: List.map
         (fun l -> if l = Float.infinity then "load inf" else Printf.sprintf "load %g" l)
         loads
  in
  let sweep =
    List.map
      (fun policy ->
        ( policy,
          List.map (fun load -> sweep_point policy traces ~factor ~load) loads ))
      policies
  in
  Dt_report.Table.print ~header
    (List.map
       (fun (policy, points) ->
         Engine.policy_name policy :: List.map Dt_report.Table.fmt_ratio points)
       sweep);
  Printf.printf
    "\n(mean online/offline makespan over %d HF traces at C = %g m_c; load = \
     mean comm time / arrival spacing; load inf = every task at 0, which the \
     tests pin to the offline schedule bit for bit)\n"
    (Array.length traces) factor;
  (* previous PR's numbers, read before write_artifact overwrites them *)
  let baseline = load_mode_sweep_baseline "BENCH_runtime.json" in
  (* the forked benches must run before tcp_throughput spawns the first
     domain of this process (fork + live domains don't mix) *)
  let sweep_clients = [ 1; 2; 4; 8 ] in
  let sweep_requests = if Data.fast then 400 else 2500 in
  let client_sweep =
    List.map
      (fun clients ->
        (clients, tcp_client_sweep ~clients ~requests:sweep_requests ()))
      sweep_clients
  in
  (* connections x framing/pipelining: the same conn count served once
     as single-request text clients, once as binary clients with 16
     SUBMITs in flight per frame *)
  let mode_levels = [ 1; 4; 16 ] in
  let pipeline_depth = 16 in
  let mode_sweep =
    List.concat_map
      (fun clients ->
        [
          ( (clients, false, 1),
            tcp_client_sweep ~clients ~requests:sweep_requests () );
          ( (clients, true, pipeline_depth),
            tcp_client_sweep ~binary:true ~pipeline:pipeline_depth ~clients
              ~requests:sweep_requests () );
        ])
      mode_levels
  in
  let c10k_connections = 2048 in
  let c10k = c10k_idle ~connections:c10k_connections in
  let requests = if Data.fast then 2000 else 20000 in
  let inproc_rps, inproc_p50, inproc_p99, inproc_mwpr =
    session_throughput ~requests
  in
  Printf.printf
    "\nservice loop, in-process: %.0f req/s (p50 %.1f us, p99 %.1f us, \
     %.0f minor words/req, %d requests)\n"
    inproc_rps (1e6 *. inproc_p50) (1e6 *. inproc_p99) inproc_mwpr requests;
  let tcp_requests = if Data.fast then 1000 else 5000 in
  let tcp_rps, tcp_p50, tcp_p99, server_mwpr =
    tcp_throughput ~requests:tcp_requests
  in
  Printf.printf
    "service loop, TCP loopback: %.0f req/s (p50 %.1f us, p99 %.1f us, \
     server %s minor words/req, %d requests)\n"
    tcp_rps (1e6 *. tcp_p50) (1e6 *. tcp_p99)
    (match server_mwpr with Some w -> Printf.sprintf "%.0f" w | None -> "n/a")
    tcp_requests;
  List.iter
    (fun (clients, (rps, _, p99, p999)) ->
      Printf.printf
        "service loop, TCP %d concurrent client%s: %.0f req/s aggregate \
         (worst p99 %.1f us, p99.9 %.1f us, %d requests each, forked processes)\n"
        clients
        (if clients = 1 then " " else "s")
        rps (1e6 *. p99) (1e6 *. p999) sweep_requests)
    client_sweep;
  List.iter
    (fun ((clients, binary, pipeline), (rps, _, p99, p999)) ->
      Printf.printf
        "service loop, TCP %2d client%s %s pipeline=%-2d: %.0f req/s aggregate \
         (worst p99 %.1f us, p99.9 %.1f us)\n"
        clients
        (if clients = 1 then " " else "s")
        (if binary then "binary" else "text  ")
        pipeline rps (1e6 *. p99) (1e6 *. p999))
    mode_sweep;
  (match c10k with
  | Some (established_s, served) ->
      Printf.printf
        "C10K idle population: %d concurrent idle connections on epoll, \
         established in %.2f s, live session served: %b\n"
        c10k_connections established_s served
  | None ->
      Printf.printf
        "C10K idle population: skipped (epoll unavailable on this host)\n");
  let sweep_rps clients =
    match List.assoc_opt clients client_sweep with
    | Some (rps, _, _, _) -> rps
    | None -> 0.0
  in
  let non_decreasing_1_to_4 = sweep_rps 4 >= sweep_rps 1 in
  Printf.printf "GATE tcp_sweep_non_decreasing_1_to_4=%b\n" non_decreasing_1_to_4;
  (* at every conn count, binary+pipelined must strictly beat the
     single-request text baseline (the point of the framing) *)
  let mode_rps clients binary pipeline =
    match List.assoc_opt (clients, binary, pipeline) mode_sweep with
    | Some (rps, _, _, _) -> rps
    | None -> 0.0
  in
  let pipelined_binary_beats_text =
    List.for_all
      (fun clients ->
        mode_rps clients true pipeline_depth > mode_rps clients false 1)
      mode_levels
  in
  Printf.printf "GATE pipelined_binary_beats_text=%b\n" pipelined_binary_beats_text;
  (match c10k with
  | Some (_, served) -> Printf.printf "GATE c10k_idle_served=%b\n" served
  | None -> ());
  (* zero-copy regression gate: every mode_sweep point is compared to
     the committed previous-PR number; the gate is on the geometric mean
     of the speedups, with a 0.9 floor absorbing forked-bench noise on a
     shared runner. First run (no baseline) passes vacuously. *)
  let mode_ratios =
    List.filter_map
      (fun (key, (rps, _, _, _)) ->
        match List.assoc_opt key baseline with
        | Some base when base > 0.0 && rps > 0.0 -> Some (key, base, rps /. base)
        | _ -> None)
      mode_sweep
  in
  let geomean_speedup =
    match mode_ratios with
    | [] -> 1.0
    | l ->
        exp
          (List.fold_left (fun a (_, _, r) -> a +. log r) 0.0 l
          /. Float.of_int (List.length l))
  in
  let zero_copy_not_slower = geomean_speedup >= 0.9 in
  Printf.printf
    "GATE zero_copy_not_slower=%b geomean_speedup_vs_baseline=%.3f \
     baseline_points=%d\n"
    zero_copy_not_slower geomean_speedup
    (List.length mode_ratios);
  (* allocation budget on the deterministic in-process loop: parsing a
     SUBMIT, running the engine pass and formatting the response must
     stay under this many minor words per request (measured ~340 on the
     zero-copy path; the budget leaves ~3x headroom for legitimate
     feature growth while still catching an accidental per-request copy
     of anything buffer-sized) *)
  let alloc_budget_words = 1024.0 in
  let alloc_budget_ok = inproc_mwpr <= alloc_budget_words in
  Printf.printf "GATE alloc_budget_ok=%b minor_words_per_req=%.0f budget=%.0f\n"
    alloc_budget_ok inproc_mwpr alloc_budget_words;
  let writev_available = Dt_runtime.Net.writev_available in
  Printf.printf "writev_available=%b\n" writev_available;
  Provenance.write_artifact ~path:"BENCH_runtime.json" ~experiment:"online-runtime"
    (fun oc ->
      Printf.fprintf oc
        "  \"kernel\": \"hf\",\n  \"traces\": %d,\n  \"capacity_factor\": %g,\n\
        \  \"fast_mode\": %b,\n  \"sweep\": [\n"
        (Array.length traces) factor Data.fast;
      let n_rows = List.length sweep in
      List.iteri
        (fun i (policy, points) ->
          Printf.fprintf oc "    { \"policy\": \"%s\", \"mean_ratio_by_load\": [%s] }%s\n"
            (Engine.policy_name policy)
            (String.concat ", "
               (List.map2
                  (fun load p ->
                    Printf.sprintf "{ \"load\": %s, \"ratio\": %.6f }"
                      (if load = Float.infinity then "\"inf\""
                       else Printf.sprintf "%g" load)
                      p)
                  loads points))
            (if i = n_rows - 1 then "" else ","))
        sweep;
      Printf.fprintf oc
        "  ],\n\
        \  \"throughput\": {\n\
        \    \"in_process\": { \"requests\": %d, \"requests_per_s\": %.1f, \
         \"p50_latency_us\": %.2f, \"p99_latency_us\": %.2f, \
         \"minor_words_per_req\": %.1f, \"alloc_budget_words\": %.0f, \
         \"alloc_budget_ok\": %b },\n\
        \    \"tcp_loopback\": { \"requests\": %d, \"requests_per_s\": %.1f, \
         \"p50_latency_us\": %.2f, \"p99_latency_us\": %.2f, \
         \"server_minor_words_per_req\": %s },\n\
        \    \"tcp_client_sweep\": [\n"
        requests inproc_rps (1e6 *. inproc_p50) (1e6 *. inproc_p99)
        inproc_mwpr alloc_budget_words alloc_budget_ok
        tcp_requests tcp_rps (1e6 *. tcp_p50) (1e6 *. tcp_p99)
        (match server_mwpr with
        | Some w -> Printf.sprintf "%.1f" w
        | None -> "null");
      let n_points = List.length client_sweep in
      List.iteri
        (fun i (clients, (rps, p50, p99, p999)) ->
          Printf.fprintf oc
            "      { \"clients\": %d, \"requests_per_client\": %d, \
             \"requests_per_s\": %.1f, \"worst_p50_latency_us\": %.2f, \
             \"worst_p99_latency_us\": %.2f, \"worst_p999_latency_us\": %.2f }%s\n"
            clients sweep_requests rps (1e6 *. p50) (1e6 *. p99) (1e6 *. p999)
            (if i = n_points - 1 then "" else ","))
        client_sweep;
      let conc_rps, _, _, _ =
        match List.assoc_opt 4 client_sweep with
        | Some point -> point
        | None -> (0.0, 0.0, 0.0, 0.0)
      in
      Printf.fprintf oc
        "    ],\n\
        \    \"tcp_concurrent\": { \"clients\": 4, \"requests_per_client\": %d, \
         \"requests_per_s\": %.1f },\n\
        \    \"sweep_non_decreasing_1_to_4\": %b,\n\
        \    \"mode_sweep\": [\n"
        sweep_requests conc_rps non_decreasing_1_to_4;
      let n_modes = List.length mode_sweep in
      List.iteri
        (fun i ((clients, binary, pipeline), (rps, p50, p99, p999)) ->
          let baseline_json =
            match List.assoc_opt (clients, binary, pipeline) baseline with
            | Some base when base > 0.0 ->
                Printf.sprintf
                  ", \"baseline_requests_per_s\": %.1f, \
                   \"speedup_vs_baseline\": %.3f"
                  base (rps /. base)
            | _ -> ""
          in
          Printf.fprintf oc
            "      { \"clients\": %d, \"mode\": \"%s\", \"pipeline\": %d, \
             \"requests_per_client\": %d, \"requests_per_s\": %.1f, \
             \"worst_p50_latency_us\": %.2f, \"worst_p99_latency_us\": %.2f, \
             \"worst_p999_latency_us\": %.2f%s }%s\n"
            clients
            (if binary then "binary" else "text")
            pipeline sweep_requests rps (1e6 *. p50) (1e6 *. p99) (1e6 *. p999)
            baseline_json
            (if i = n_modes - 1 then "" else ","))
        mode_sweep;
      Printf.fprintf oc
        "    ],\n\
        \    \"pipelined_binary_beats_text\": %b,\n\
        \    \"zero_copy\": { \"writev_available\": %b, \
         \"baseline_points\": %d, \"geomean_speedup_vs_baseline\": %.3f, \
         \"zero_copy_not_slower\": %b },\n"
        pipelined_binary_beats_text writev_available
        (List.length mode_ratios) geomean_speedup zero_copy_not_slower;
      (match c10k with
      | Some (established_s, served) ->
          Printf.fprintf oc
            "    \"c10k\": { \"connections\": %d, \"backend\": \"epoll\", \
             \"established_s\": %.3f, \"served\": %b }\n"
            c10k_connections established_s served
      | None ->
          Printf.fprintf oc
            "    \"c10k\": { \"skipped\": \"epoll unavailable\" }\n");
      Printf.fprintf oc "  }\n")
