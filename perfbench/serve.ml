(* serve-hf: `dtsched serve` without a pool, in its own process, driven
   by the load generator (Loadgen) in another. *)

open Dt_core
module Trace = Dt_trace.Trace

type server = { pid : int; port : int; stdout : in_channel }

(* A blocking line exchange on a fresh connection. *)
let exchange port line =
  let fd = Loadgen.connect port in
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (line ^ "\n");
      flush oc;
      input_line ic)

(* Start the server and time it until it has answered a first INIT: the
   set-up a client of the service waits for. *)
let start ~init =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Spans.now () in
  let pid = Work.spawn ~stdout:wr (Work.dtsched ()) [ "serve"; "-p"; "0" ] in
  Unix.close wr;
  let stdout = Unix.in_channel_of_descr rd in
  let port =
    match Unix.select [ rd ] [] [] 30.0 with
    | [], _, _ -> failwith "the server did not start listening within 30 s"
    | _ -> Scanf.sscanf (input_line stdout) "dtsched: listening on %s@:%d" (fun _ p -> p)
  in
  let fd = Loadgen.connect port in
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  output_string oc (init ^ "\n");
  flush oc;
  let answer = input_line ic in
  let setup = Spans.now () -. t0 in
  output_string oc "QUIT\n";
  flush oc;
  ignore (input_line ic);
  close_out oc;
  if not (String.length answer >= 3 && String.sub answer 0 3 = "OK ") then
    failwith ("INIT refused: " ^ answer);
  ({ pid; port; stdout }, setup)

let stop s =
  (try ignore (exchange s.port "SHUTDOWN") with _ -> ());
  ignore (Work.wait ~timeout:30.0 s.pid);
  close_in_noerr s.stdout

let init_line (t : Trace.t) =
  Dt_runtime.Protocol.render_request
    (Dt_runtime.Protocol.Init
       {
         capacity = Trace.min_capacity t *. Work.capacity_factor;
         policy = Dt_runtime.Engine.Corrected Corrected_rules.OOSCMR;
         queue_limit = None;
         binary = false;
       })

(* Set-up timed [reps] times. *)
let setup_times ~init ~reps =
  List.init reps (fun _ ->
      let s, dt = start ~init in
      stop s;
      dt)

(* One untimed warm-up pass, then timed passes for about [seconds]. *)
let load_run ~dir ~prefix ~seconds ~port =
  let out = Filename.concat dir "loadgen.bin" in
  let pid =
    Work.spawn Sys.executable_name
      [ "loadgen"; "--port"; string_of_int port; "--dir"; dir; "--prefix"; prefix;
        "--seconds"; Printf.sprintf "%.3f" seconds; "--out"; out ]
  in
  if not (Work.wait ~timeout:(seconds +. 90.0) pid) then failwith "the load generator failed";
  let ic = open_in_bin out in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> (Marshal.from_channel ic : Loadgen.result))

let server_gauge port key =
  match exchange port "STATS" with
  | line -> Option.bind (Loadgen.field key line) float_of_string_opt
  | exception _ -> None

(* The offline OOSCMR makespan of every trace, which each drained session
   must reproduce bit for bit. *)
let offline_makespans instances =
  Array.map (fun i -> Schedule.makespan (Corrected_rules.run Corrected_rules.OOSCMR i)) instances

(* Output checks: no ERR, nothing dropped, every session complete, every
   drained makespan equal to the offline one, and a pass timed. *)
let check r ~offline (res : Loadgen.result) =
  let mismatched =
    List.length
      (List.filter
         (fun (i, m) -> not (Int64.equal (Int64.bits_of_float m) (Int64.bits_of_float offline.(i))))
         res.drains)
  in
  let errors = List.fold_left (fun n (_, k) -> n + k) 0 res.errors in
  List.iter (fun (code, k) -> Report.problem r "%d ERR %s responses" k code) res.errors;
  if res.dropped > 0 then Report.problem r "%d requests dropped unanswered" res.dropped;
  if res.refused > 0 then Report.problem r "%d connections refused" res.refused;
  if res.bad_sessions > 0 then Report.problem r "%d sessions incomplete or wrong" res.bad_sessions;
  if mismatched > 0 then Report.problem r "%d drained makespans differ from offline OOSCMR" mismatched;
  if Array.length res.passes = 0 then Report.problem r "no pass completed";
  Report.count r ~attempted:(res.requests + res.refused)
    ~failed:(errors + res.dropped + res.refused + res.bad_sessions + mismatched)

let describe_latency name xs =
  if Array.length xs > 0 then
    Report.say "  %-34s %s" name (Stats.describe ~scale:1e6 ~unit:"us" (Stats.summarize xs))

(* A fresh server under the load for about [seconds]; the server's peak
   resident set is read before it stops. *)
let round ~dir ~prefix ~seconds ~init =
  let server, _ = start ~init in
  Fun.protect
    ~finally:(fun () -> stop server)
    (fun () ->
      let res = load_run ~dir ~prefix ~seconds ~port:server.port in
      (res, Work.peak_rss_mb (string_of_int server.pid)))

(* The load runs in [rounds] rounds, each against a fresh server and a
   fresh load generator, and the pass figure is the median over all the
   rounds' timed passes: a run then samples five process pairs, whose
   speed differs from start to start on a shared host. *)
let rounds = 5

let serve_hf r ~dir ~seconds =
  let traces, instances = Offline.load ~dir ~prefix:"hf" in
  let init = init_line traces.(0) in
  (* the set-ups are spread over the run, before each round *)
  let setups = ref [] in
  let results =
    List.init rounds (fun _ ->
        setups := setup_times ~init ~reps:Work.server_setup_reps @ !setups;
        round ~dir ~prefix:"hf" ~seconds:(seconds /. float_of_int rounds) ~init)
  in
  Report.metric r "setup_s" "s" (Work.median !setups)
    ~detail:
      (Printf.sprintf "(%s over server starts to first INIT answer, before each round)"
         (Stats.describe ~scale:1.0 ~unit:"s" (Stats.summarize (Array.of_list !setups))));
  let offline = offline_makespans instances in
  List.iter (fun (res, _) -> check r ~offline res) results;
  let passes = Array.concat (List.map (fun ((res : Loadgen.result), _) -> res.passes) results) in
  Offline.report_passes r "schedule_s" (Array.to_list passes);
  (* every drained makespan matched the offline one, so the ratio is the
     service's own; it is taken over the traces drained at least once *)
  let drained = Array.make (Array.length traces) None in
  List.iter
    (fun ((res : Loadgen.result), _) -> List.iter (fun (i, m) -> drained.(i) <- Some m) res.drains)
    results;
  let ratios =
    List.filter_map
      (fun (i, m) -> Option.map (fun m -> m /. Johnson.omim traces.(i).Trace.tasks) m)
      (List.mapi (fun i m -> (i, m)) (Array.to_list drained))
  in
  Report.metric r "makespan_ratio" "ratio" (Work.mean ratios)
    ~detail:(Printf.sprintf "(mean over %d drained processes of makespan / OMIM)"
               (List.length ratios));
  let timed = List.fold_left (fun n ((res : Loadgen.result), _) -> n + res.timed_responses) 0 results in
  Report.say "  %-34s %14.6g %-6s (%d responses over the timed passes)" "throughput"
    (float_of_int timed /. Array.fold_left ( +. ) 0.0 passes) "1/s" timed;
  let all f = Array.concat (List.map (fun (res, _) -> f res) results) in
  describe_latency "latency, text" (all (fun (res : Loadgen.result) -> res.text));
  describe_latency "latency, binary x16" (all (fun (res : Loadgen.result) -> res.binary));
  Report.metric r "peak_rss_mb" "MB" (Work.median (List.map snd results))
    ~detail:(Printf.sprintf "(median over %d rounds of the server's VmHWM)" rounds)

(* server.*, measured on the workload's traces: one round of the load
   (warm-up pass, then timed passes for about [seconds]). Returns the
   median TCP latency of a request, in seconds. *)
let server_layers r ~dir ~prefix ~seconds ~traces ~instances =
  let server, _ = start ~init:(init_line traces.(0)) in
  let res, words =
    Fun.protect
      ~finally:(fun () -> stop server)
      (fun () ->
        let res = load_run ~dir ~prefix ~seconds ~port:server.port in
        (res, server_gauge server.port "minor_words_per_req"))
  in
  check r ~offline:(offline_makespans instances) res;
  let tcp = Array.append res.text res.binary in
  Report.metric r "server.rps" "1/s"
    (float_of_int res.timed_responses /. Array.fold_left ( +. ) 0.0 res.passes)
    ~detail:(Printf.sprintf "(responses per second over %d timed passes, both connections)"
               (Array.length res.passes));
  List.iter
    (fun (name, p) ->
      match Stats.percentile tcp p with
      | Ok v ->
          Report.metric r name "us" (v *. 1e6)
            ~detail:(Printf.sprintf "(send to decoded response, n=%d, both connections)"
                       (Array.length tcp))
      | Error e -> Report.problem r "%s: %s" name e)
    [ ("server.req_p50_us", 50.0); ("server.req_p99_us", 99.0) ];
  describe_latency "latency, text" res.text;
  describe_latency "latency, binary x16" res.binary;
  Report.metric r "server.minor_words_per_req" "words" (Option.value words ~default:nan)
    ~detail:"(the server's STATS gauge)";
  Report.metric r "server.err_responses" "count"
    (float_of_int (List.fold_left (fun n (_, k) -> n + k) 0 res.errors))
    ~detail:
      (match res.errors with
      | [] -> "(none)"
      | l -> String.concat " " (List.map (fun (c, k) -> Printf.sprintf "%s=%d" c k) l));
  Dt_stats.Descriptive.median tcp
