(* dt_runtime: the online arrival-aware engine degenerates to the offline
   heuristics when every arrival is 0 (bit for bit), arrival times are
   honoured, admission control backpressures, and the wire protocol /
   session / TCP server round-trip end to end. *)

open Dt_core
module Engine = Dt_runtime.Engine
module Protocol = Dt_runtime.Protocol
module Session = Dt_runtime.Session
module Iobuf = Dt_runtime.Iobuf

let offline_run policy instance =
  match policy with
  | Engine.Dynamic c -> Dynamic_rules.run c instance
  | Engine.Corrected r -> Corrected_rules.run r instance

let online_run policy instance =
  let engine =
    Engine.create ~policy ~capacity:instance.Instance.capacity ()
  in
  List.iter
    (fun task -> assert (Engine.submit engine task = Engine.Accepted))
    (Instance.task_list instance);
  ignore (Engine.drain engine);
  Engine.schedule engine

(* Bit-for-bit schedule identity: same tasks in the same slots with
   exactly equal (not approximately equal) start times. *)
let identical_schedules (a : Schedule.t) (b : Schedule.t) =
  let ea = Schedule.entries a and eb = Schedule.entries b in
  List.length ea = List.length eb
  && List.for_all2
       (fun (x : Schedule.entry) (y : Schedule.entry) ->
         x.Schedule.task.Task.id = y.Schedule.task.Task.id
         && x.Schedule.s_comm = y.Schedule.s_comm
         && x.Schedule.s_comp = y.Schedule.s_comp)
       ea eb

let prop_zero_arrivals_are_offline =
  Generators.prop_test ~count:250
    ~name:"arrivals at 0: online engine = offline rules, bit for bit"
    (Generators.instance_gen ~max_size:10 ())
    (fun instance ->
      List.for_all
        (fun policy ->
          let offline = offline_run policy instance in
          let online = online_run policy instance in
          identical_schedules offline online
          || QCheck2.Test.fail_reportf
               "policy %s diverged: offline makespan %g, online %g"
               (Engine.policy_name policy)
               (Schedule.makespan offline) (Schedule.makespan online))
        Engine.all_policies)

let prop_online_schedules_valid =
  Generators.prop_test ~count:150 ~name:"online schedules with arrivals are valid"
    (Generators.instance_gen ~max_size:10 ())
    (fun instance ->
      List.for_all
        (fun policy ->
          let engine = Engine.create ~policy ~capacity:instance.Instance.capacity () in
          List.iteri
            (fun i task ->
              (* deterministic staggered arrivals derived from the index *)
              let arrival = Float.of_int (i mod 4) *. 0.75 in
              assert (Engine.submit engine ~arrival task = Engine.Accepted))
            (Instance.task_list instance);
          ignore (Engine.drain engine);
          let sched = Engine.schedule engine in
          Generators.check_feasible "online" instance sched
          && Schedule.size sched = Instance.size instance)
        Engine.all_policies)

let arrivals_are_honoured () =
  (* a lone task arriving at t = 5 cannot start its transfer earlier *)
  let engine = Engine.create ~capacity:10.0 () in
  let t = Task.make ~id:0 ~comm:1.0 ~comp:2.0 ~mem:1.0 () in
  assert (Engine.submit engine ~arrival:5.0 t = Engine.Accepted);
  (match Engine.drain engine with
  | [ e ] ->
      Alcotest.(check (float 0.0)) "s_comm = arrival" 5.0 e.Schedule.s_comm;
      Alcotest.(check (float 0.0)) "makespan" 8.0 (Engine.makespan engine)
  | _ -> Alcotest.fail "expected one entry");
  (* a better task that has not arrived yet cannot be chosen: with equal
     communication times (equal induced idle) MAMR prefers the high
     acceleration task offline, but online it arrives too late *)
  let a = Task.make ~id:0 ~comm:1.0 ~comp:1.0 ~mem:1.0 () in
  let b = Task.make ~id:1 ~comm:1.0 ~comp:5.0 ~mem:1.0 () in
  let offline =
    offline_run (Engine.Dynamic Dynamic_rules.MAMR)
      (Instance.make_keep_ids ~capacity:10.0 [ a; b ])
  in
  (match Schedule.entries offline with
  | first :: _ ->
      Alcotest.(check int) "offline MAMR picks the accelerated task first" 1
        first.Schedule.task.Task.id
  | [] -> Alcotest.fail "empty offline schedule");
  let engine = Engine.create ~policy:(Engine.Dynamic Dynamic_rules.MAMR) ~capacity:10.0 () in
  assert (Engine.submit engine ~arrival:0.0 a = Engine.Accepted);
  assert (Engine.submit engine ~arrival:0.5 b = Engine.Accepted);
  match Engine.drain engine with
  | first :: _ ->
      Alcotest.(check int) "online must start what has arrived" 0
        first.Schedule.task.Task.id
  | [] -> Alcotest.fail "empty online schedule"

let engine_is_resumable () =
  (* draining, then submitting more, chains like batched scheduling *)
  let engine = Engine.create ~capacity:4.0 () in
  let mk id = Task.make ~id ~comm:1.0 ~comp:1.0 ~mem:1.0 () in
  assert (Engine.submit engine (mk 0) = Engine.Accepted);
  Alcotest.(check int) "first drain returns its entry" 1 (List.length (Engine.drain engine));
  Alcotest.(check (float 0.0)) "first batch makespan" 2.0 (Engine.makespan engine);
  assert (Engine.submit engine ~arrival:10.0 (mk 1) = Engine.Accepted);
  (match Engine.drain engine with
  | [ e ] -> Alcotest.(check int) "second drain returns only the new entry" 1 e.Schedule.task.Task.id
  | l -> Alcotest.failf "second drain returned %d entries" (List.length l));
  let whole = Engine.schedule engine in
  Alcotest.(check int) "both batches in the schedule" 2 (Schedule.size whole);
  Alcotest.(check (float 0.0)) "second batch waited for its arrival" 12.0
    (Schedule.makespan whole);
  Alcotest.(check (float 0.0)) "makespan = the whole schedule's" (Schedule.makespan whole)
    (Engine.makespan engine)

let admission_control () =
  let engine = Engine.create ~queue_limit:2 ~capacity:5.0 () in
  let mk id mem = Task.make ~id ~comm:1.0 ~comp:1.0 ~mem () in
  Alcotest.(check bool) "too big rejected" true
    (Engine.submit engine (mk 0 7.0) = Engine.Rejected_too_big 5.0);
  assert (Engine.submit engine (mk 1 1.0) = Engine.Accepted);
  assert (Engine.submit engine (mk 2 1.0) = Engine.Accepted);
  Alcotest.(check bool) "backpressure at the queue bound" true
    (Engine.submit engine (mk 3 1.0) = Engine.Rejected_queue_full 2);
  Alcotest.(check int) "rejections counted" 2 (Engine.rejected engine);
  ignore (Engine.drain engine);
  Alcotest.(check bool) "queue drains, admission resumes" true
    (Engine.submit engine (mk 3 1.0) = Engine.Accepted);
  Alcotest.check_raises "negative arrival"
    (Invalid_argument "Engine.submit: arrival must be finite and non-negative")
    (fun () -> ignore (Engine.submit engine ~arrival:(-1.0) (mk 4 1.0)))

(* ------------------------------ protocol ------------------------------ *)

let protocol_parses () =
  let ok s =
    match Protocol.parse_request s with
    | Ok r -> r
    | Error e -> Alcotest.failf "%S should parse, got: %s" s e
  in
  (match ok "SUBMIT a 1.5 2 3" with
  | Protocol.Submit { label; comm; comp; mem; arrival } ->
      Alcotest.(check string) "label" "a" label;
      Alcotest.(check (float 0.0)) "comm" 1.5 comm;
      Alcotest.(check (float 0.0)) "comp" 2.0 comp;
      Alcotest.(check (float 0.0)) "mem" 3.0 mem;
      Alcotest.(check (float 0.0)) "arrival defaults to 0" 0.0 arrival
  | _ -> Alcotest.fail "wrong request");
  (match ok "init 4.5 lcmr 16" with
  | Protocol.Init { capacity; policy; queue_limit; binary = _ } ->
      Alcotest.(check (float 0.0)) "capacity" 4.5 capacity;
      Alcotest.(check string) "policy" "LCMR" (Engine.policy_name policy);
      Alcotest.(check (option int)) "queue" (Some 16) queue_limit
  | _ -> Alcotest.fail "wrong request");
  List.iter
    (fun r ->
      match Protocol.parse_request (Protocol.render_request r) with
      | Ok r' when r' = r -> ()
      | Ok _ -> Alcotest.failf "roundtrip changed %S" (Protocol.render_request r)
      | Error e -> Alcotest.failf "roundtrip failed on %S: %s" (Protocol.render_request r) e)
    [
      Protocol.Poll;
      Protocol.Entries;
      Protocol.Stats;
      Protocol.Drain;
      Protocol.Quit;
      Protocol.Shutdown;
      Protocol.Submit { label = "k7"; comm = 0.25; comp = 3.5; mem = 1.0; arrival = 9.0 };
      Protocol.Init
        {
          capacity = 2.5;
          policy = Engine.Dynamic Dynamic_rules.MAMR;
          queue_limit = Some 9;
          binary = false;
        };
    ]

let protocol_rejects_malformed () =
  List.iter
    (fun s ->
      match Protocol.parse_request s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" s)
    [
      "";
      "   ";
      "NOPE";
      "SUBMIT";
      "SUBMIT a 1 2";            (* truncated *)
      "SUBMIT a x 2 3";          (* non-numeric *)
      "SUBMIT a 1 2 -3";         (* negative memory *)
      "SUBMIT a nan 2 3";        (* NaN *)
      "SUBMIT a 1 2 3 4 5";      (* too many fields *)
      "INIT";
      "INIT 0";                  (* capacity must be positive *)
      "INIT 5 WAT";              (* unknown policy *)
      "INIT 5 LCMR 0";           (* queue limit must be positive *)
      "POLL now";
      "DRAIN 3";
    ]

(* ------------------------------ session ------------------------------- *)

let session_conversation () =
  let s = Session.create () in
  let one line =
    match Session.handle_line s line with
    | [ response ], Session.Continue -> response
    | responses, _ -> String.concat " | " responses
  in
  let starts_with prefix line =
    String.length line >= String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  in
  Alcotest.(check bool) "SUBMIT before INIT is a state error" true
    (starts_with "ERR state" (one "SUBMIT a 1 1 1"));
  Alcotest.(check bool) "INIT ok" true (starts_with "OK" (one "INIT 6 OOSCMR 4"));
  Alcotest.(check bool) "second INIT rejected" true
    (starts_with "ERR state" (one "INIT 6"));
  Alcotest.(check bool) "malformed is ERR parse, session survives" true
    (starts_with "ERR parse" (one "SUBMIT a 1"));
  Alcotest.(check bool) "submit" true (starts_with "OK accepted id=0" (one "SUBMIT a 2 1 2"));
  Alcotest.(check bool) "submit" true (starts_with "OK accepted id=1" (one "SUBMIT b 1 3 1"));
  Alcotest.(check bool) "toobig is its own error code" true
    (starts_with "ERR toobig" (one "SUBMIT huge 1 1 99"));
  (* POLL announces and frames its ENTRY lines *)
  (match Session.handle_line s "DRAIN" with
  | [ drain ], Session.Continue ->
      let offline =
        let i =
          Instance.make_keep_ids ~capacity:6.0
            [
              Task.make ~id:0 ~label:"a" ~comm:2.0 ~comp:1.0 ~mem:2.0 ();
              Task.make ~id:1 ~label:"b" ~comm:1.0 ~comp:3.0 ~mem:1.0 ();
            ]
        in
        Schedule.makespan (Corrected_rules.run Corrected_rules.OOSCMR i)
      in
      Alcotest.(check (option (float 0.0)))
        "DRAIN makespan equals the offline run" (Some offline)
        (Dt_runtime.Client.response_field "makespan" drain)
  | _ -> Alcotest.fail "DRAIN: expected a single OK line");
  (match Session.handle_line s "POLL" with
  | head :: entries, Session.Continue ->
      Alcotest.(check (option (float 0.0)))
        "POLL announces its entries" (Some 2.0)
        (Dt_runtime.Client.response_field "new" head);
      Alcotest.(check int) "and ships that many" 2 (List.length entries);
      List.iter
        (fun l -> Alcotest.(check bool) "ENTRY lines" true (starts_with "ENTRY" l))
        entries
  | _ -> Alcotest.fail "POLL: expected a framed response");
  (match Session.handle_line s "QUIT" with
  | _, Session.Close_session -> ()
  | _ -> Alcotest.fail "QUIT must close the session");
  let s2 = Session.create () in
  match Session.handle_line s2 "SHUTDOWN" with
  | _, Session.Stop_server -> ()
  | _ -> Alcotest.fail "SHUTDOWN must stop the server"

(* ---------------------------- TCP loopback ---------------------------- *)

let tasks_for_wire =
  List.init 20 (fun id ->
      let comm = 0.5 +. Float.of_int ((id * 7) mod 5) /. 4.0 in
      let comp = 0.25 +. Float.of_int ((id * 3) mod 7) /. 4.0 in
      Task.make ~id ~comm ~comp ~mem:comm ())

let tcp_end_to_end () =
  let server = Dt_runtime.Server.create ~port:0 () in
  let port = Dt_runtime.Server.port server in
  let domain = Domain.spawn (fun () -> Dt_runtime.Server.run server) in
  let trace = Dt_trace.Trace.make ~name:"wire" tasks_for_wire in
  let finish () =
    (* stop the accept loop whatever happened above *)
    match Dt_runtime.Client.connect ~port () with
    | conn ->
        ignore (Dt_runtime.Client.request conn Protocol.Shutdown);
        Dt_runtime.Client.close conn;
        Domain.join domain
    | exception Unix.Unix_error _ -> Domain.join domain
  in
  Fun.protect ~finally:finish (fun () ->
      let conn = Dt_runtime.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Dt_runtime.Client.close conn)
        (fun () ->
          let policy = Engine.Corrected Corrected_rules.OOSCMR in
          let r =
            Dt_runtime.Client.replay conn ~trace ~rate:Float.infinity ~policy
              ~capacity_factor:1.5 ()
          in
          Alcotest.(check int) "all submissions accepted" 20 r.Dt_runtime.Client.accepted;
          Alcotest.(check (float 0.0))
            "clairvoyant replay over TCP = offline schedule"
            r.Dt_runtime.Client.offline_makespan r.Dt_runtime.Client.makespan;
          let offline =
            let capacity = 1.5 *. Dt_trace.Trace.min_capacity trace in
            Schedule.makespan
              (Corrected_rules.run Corrected_rules.OOSCMR
                 (Instance.make_keep_ids ~capacity tasks_for_wire))
          in
          Alcotest.(check (float 0.0))
            "and equals Corrected_rules.run directly" offline r.Dt_runtime.Client.makespan))

(* ------------------------ connection faults ------------------------- *)

(* Start a server on its own domain, run [f port], then shut the server
   down whatever happened. The shutdown handshake retries: right after a
   test closes a connection the server may not have reaped it yet, so a
   max_conns-limited server can answer the first attempt ERR busy. *)
let with_server ?backend ?max_conns ?max_output_bytes ?idle_timeout f =
  let server = Dt_runtime.Server.create ~port:0 () in
  let port = Dt_runtime.Server.port server in
  let domain =
    Domain.spawn (fun () ->
        Dt_runtime.Server.run ?backend ?max_conns ?max_output_bytes
          ?idle_timeout server)
  in
  let finish () =
    let rec shutdown attempts =
      if attempts > 0 then
        match Dt_runtime.Client.connect ~port () with
        | exception Unix.Unix_error _ -> () (* already gone *)
        | conn -> (
            match Dt_runtime.Client.request conn Protocol.Shutdown with
            | exception Failure _ -> Dt_runtime.Client.close conn
            | line :: _ when String.length line >= 2 && String.sub line 0 2 = "OK"
              ->
                Dt_runtime.Client.close conn
            | _ ->
                Dt_runtime.Client.close conn;
                Unix.sleepf 0.05;
                shutdown (attempts - 1))
    in
    shutdown 20;
    Domain.join domain
  in
  Fun.protect ~finally:finish (fun () -> f port)

let raw_connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

let starts_with prefix line =
  String.length line >= String.length prefix
  && String.sub line 0 (String.length prefix) = prefix

let expect_ok what = function
  | line :: _ when starts_with "OK" line -> line
  | line :: _ -> Alcotest.failf "%s answered %s" what line
  | [] -> Alcotest.failf "%s: empty response" what

(* A full INIT -> SUBMIT -> DRAIN round trip; the makespan check proves
   the second client was actually served, not just accepted. *)
let round_trip port =
  let conn = Dt_runtime.Client.connect ~port () in
  Fun.protect
    ~finally:(fun () -> Dt_runtime.Client.close conn)
    (fun () ->
      ignore
        (expect_ok "INIT"
           (Dt_runtime.Client.request conn
              (Protocol.Init
                 {
                   capacity = 10.0;
                   policy = Engine.Corrected Corrected_rules.OOSCMR;
                   queue_limit = None;
                   binary = false;
                 })));
      for i = 0 to 4 do
        ignore
          (expect_ok "SUBMIT"
             (Dt_runtime.Client.request conn
                (Protocol.Submit
                   {
                     label = Printf.sprintf "t%d" i;
                     comm = 1.0;
                     comp = 0.5;
                     mem = 1.0;
                     arrival = 0.0;
                   })))
      done;
      let drain = expect_ok "DRAIN" (Dt_runtime.Client.request conn Protocol.Drain) in
      Alcotest.(check (option (float 0.0)))
        "drained makespan" (Some 5.5)
        (Dt_runtime.Client.response_field "makespan" drain);
      ignore (Dt_runtime.Client.request conn Protocol.Quit))

let head_of_line_blocking () =
  (* the server runs on one domain: an idle open connection must not
     delay a second client's full round trip *)
  with_server (fun port ->
      let idle = Dt_runtime.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Dt_runtime.Client.close idle)
        (fun () -> round_trip port))

let slow_loris () =
  with_server (fun port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
          send "ST";
          Unix.sleepf 0.02;
          send "AT";
          (* mid-trickle, a second client must complete a whole session *)
          round_trip port;
          Unix.sleepf 0.02;
          send "S\r\n";
          let ic = Unix.in_channel_of_descr fd in
          match input_line ic with
          | line ->
              Alcotest.(check bool)
                "trickled STATS answered" true
                (starts_with "OK uninitialised" line)
          | exception End_of_file ->
              Alcotest.fail "server closed the slow-loris connection"))

let disconnect_mid_response () =
  with_server (fun port ->
      let fd = raw_connect port in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc "INIT 1000000 LCMR 100000\n";
      flush oc;
      ignore (input_line ic);
      for i = 0 to 199 do
        Printf.fprintf oc "SUBMIT t%d 1 0.5 1\n" i
      done;
      flush oc;
      for _ = 0 to 199 do
        ignore (input_line ic)
      done;
      (* ask for a framed multi-line response and vanish without reading
         any of it: the unread bytes make the close send a reset, so the
         server's writes fail mid-response (EPIPE/ECONNRESET) *)
      output_string oc "DRAIN\nENTRIES\n";
      flush oc;
      Unix.close fd;
      Unix.sleepf 0.05;
      (* the server must still be alive and serving *)
      round_trip port)

let engine_fault_is_contained () =
  (* session level: a fault inside the engine answers ERR internal and
     leaves the session usable *)
  let s = Session.create () in
  ignore (Session.handle_line s "INIT 10");
  Session.fault_hook :=
    (fun req -> match req with Protocol.Drain -> failwith "boom" | _ -> ());
  Fun.protect
    ~finally:(fun () -> Session.fault_hook := fun _ -> ())
    (fun () ->
      (match Session.handle_line s "DRAIN" with
      | [ line ], Session.Continue ->
          Alcotest.(check bool)
            "ERR internal carries the exception" true
            (starts_with "ERR internal" line
            && String.length line > String.length "ERR internal"
            &&
            let rec contains i =
              i + 4 <= String.length line
              && (String.sub line i 4 = "boom" || contains (i + 1))
            in
            contains 0)
      | _ -> Alcotest.fail "faulting DRAIN must answer exactly one line");
      match Session.handle_line s "STATS" with
      | [ line ], Session.Continue ->
          Alcotest.(check bool) "session survives the fault" true
            (starts_with "OK" line)
      | _ -> Alcotest.fail "session died after the fault");
  (* server level: the same fault over TCP must not kill the server *)
  Session.fault_hook :=
    (fun req -> match req with Protocol.Entries -> failwith "wire-boom" | _ -> ());
  Fun.protect
    ~finally:(fun () -> Session.fault_hook := fun _ -> ())
    (fun () ->
      with_server (fun port ->
          let conn = Dt_runtime.Client.connect ~port () in
          Fun.protect
            ~finally:(fun () -> Dt_runtime.Client.close conn)
            (fun () ->
              ignore
                (expect_ok "INIT" (Dt_runtime.Client.request_line conn "INIT 10"));
              (match Dt_runtime.Client.request_line conn "ENTRIES" with
              | line :: _ ->
                  Alcotest.(check bool) "ERR internal over the wire" true
                    (starts_with "ERR internal" line)
              | [] -> Alcotest.fail "empty response");
              ignore
                (expect_ok "STATS after the fault"
                   (Dt_runtime.Client.request conn Protocol.Stats)));
          round_trip port))

let hostname_resolution () =
  (* names, not just dotted quads, on both sides (old code raised
     Failure "inet_addr_of_string" on "localhost") *)
  let server = Dt_runtime.Server.create ~host:"localhost" ~port:0 () in
  let port = Dt_runtime.Server.port server in
  let domain = Domain.spawn (fun () -> Dt_runtime.Server.run server) in
  let conn = Dt_runtime.Client.connect ~host:"localhost" ~port () in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Dt_runtime.Client.request conn Protocol.Shutdown)
       with Failure _ -> ());
      Dt_runtime.Client.close conn;
      Domain.join domain)
    (fun () ->
      ignore (expect_ok "STATS" (Dt_runtime.Client.request conn Protocol.Stats)))

let connection_limit () =
  with_server ~max_conns:1 (fun port ->
      let c1 = Dt_runtime.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Dt_runtime.Client.close c1)
        (fun () ->
          ignore (expect_ok "STATS" (Dt_runtime.Client.request c1 Protocol.Stats));
          let fd = raw_connect port in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let ic = Unix.in_channel_of_descr fd in
              (match input_line ic with
              | line ->
                  Alcotest.(check bool) "over-limit answered ERR busy" true
                    (starts_with "ERR busy" line)
              | exception End_of_file ->
                  Alcotest.fail "over-limit connection closed without ERR busy");
              match input_line ic with
              | exception End_of_file -> ()
              | line -> Alcotest.failf "expected close after ERR busy, got %s" line));
      (* the slot is free again once c1 is gone *)
      Unix.sleepf 0.3;
      round_trip port)

let idle_timeout_reaps ?backend () =
  with_server ?backend ~idle_timeout:0.25 (fun port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let ic = Unix.in_channel_of_descr fd in
          let t0 = Unix.gettimeofday () in
          (match input_line ic with
          | line ->
              Alcotest.(check bool) "idle connection answered ERR timeout" true
                (starts_with "ERR timeout" line)
          | exception End_of_file ->
              Alcotest.fail "idle connection closed without ERR timeout");
          Alcotest.(check bool) "reaped promptly" true
            (Unix.gettimeofday () -. t0 < 5.0);
          match input_line ic with
          | exception End_of_file -> ()
          | line -> Alcotest.failf "expected close after ERR timeout, got %s" line))

let pipelined_requests () =
  (* several requests in one write: partial-line buffering must not eat
     or reorder any of them, and QUIT closes after the answers *)
  with_server (fun port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let s = "INIT 10 OOSCMR\nSUBMIT a 1 0.5 1\nSTATS\nQUIT\n" in
          ignore (Unix.write_substring fd s 0 (String.length s));
          let ic = Unix.in_channel_of_descr fd in
          let expect what prefix =
            match input_line ic with
            | line ->
                Alcotest.(check bool) what true (starts_with prefix line)
            | exception End_of_file -> Alcotest.failf "%s: connection closed" what
          in
          expect "INIT answer" "OK capacity=10";
          expect "SUBMIT answer" "OK accepted id=0";
          expect "STATS answer" "OK scheduled=";
          expect "QUIT answer" "OK bye";
          match input_line ic with
          | exception End_of_file -> ()
          | line -> Alcotest.failf "expected close after QUIT, got %s" line))

let shutdown_drains_open_connections () =
  (* SHUTDOWN with another client still connected: the acknowledgement is
     delivered, the loop exits, and the idle connection is closed rather
     than holding the shutdown hostage *)
  let server = Dt_runtime.Server.create ~port:0 () in
  let port = Dt_runtime.Server.port server in
  let domain = Domain.spawn (fun () -> Dt_runtime.Server.run server) in
  let idle = Dt_runtime.Client.connect ~port () in
  let c2 = Dt_runtime.Client.connect ~port () in
  let response = Dt_runtime.Client.request c2 Protocol.Shutdown in
  ignore (expect_ok "SHUTDOWN" response);
  Domain.join domain;
  Dt_runtime.Client.close c2;
  (match Dt_runtime.Client.request idle Protocol.Stats with
  | exception (Failure _ | Sys_error _ | Unix.Unix_error _) -> ()
  | lines ->
      Alcotest.failf "idle connection still served after shutdown: %s"
        (String.concat " | " lines));
  Dt_runtime.Client.close idle

(* Requests pipelined behind a QUIT are never answered: the server
   sends the answers through OK bye, then closes. Text and binary. *)
let quit_drops_pipelined_tail () =
  let read_to_eof fd bytes =
    let eof = ref false and buf = Buffer.create 256 in
    let chunk = Bytes.create 4096 in
    ignore (Unix.write_substring fd bytes 0 (String.length bytes));
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    while not !eof do
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> eof := true
      | n -> Buffer.add_subbytes buf chunk 0 n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.fail "no EOF within 5 s after QUIT"
    done;
    Buffer.contents buf
  in
  let submit label =
    Protocol.Submit { label; comm = 1.0; comp = 0.5; mem = 1.0; arrival = 0.0 }
  in
  let check_answers init accepted bye =
    Alcotest.(check bool) "INIT answered" true (starts_with "OK capacity=10" init);
    Alcotest.(check string) "SUBMIT a answered" "OK accepted id=0" accepted;
    Alcotest.(check string) "QUIT answered" "OK bye" bye
  in
  with_server (fun port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let got =
            read_to_eof fd "INIT 10\nSUBMIT a 1 0.5 1\nQUIT\nSTATS\nSUBMIT b 1 0.5 1\n"
          in
          match String.split_on_char '\n' got with
          | [ init; accepted; bye; "" ] -> check_answers init accepted bye
          | _ -> Alcotest.failf "text: expected three answers then EOF, got %S" got);
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let got =
            read_to_eof fd
              ("INIT 10 OOSCMR binary\n"
              ^ Protocol.encode_request_frame
                  [ submit "a"; Protocol.Quit; Protocol.Stats; submit "b" ])
          in
          let rec frames pos =
            if pos = String.length got then []
            else
              match Reference.Frame.extract_frame got ~pos with
              | Protocol.Frame (payload, used) -> (
                  match Protocol.decode_responses payload with
                  | Ok lines -> lines :: frames (pos + used)
                  | Error msg -> Alcotest.failf "bad response frame: %s" msg)
              | Protocol.Need_more | Protocol.Frame_error _ ->
                  Alcotest.failf "binary: trailing bytes %S" got
          in
          match frames 0 with
          | [ [ init ]; [ accepted ]; [ bye ] ] -> check_answers init accepted bye
          | fs ->
              Alcotest.failf "binary: expected three one-line frames then EOF, got %d"
                (List.length fs)))

(* STATS over TCP carries the poller backend and, once a batch ran, the
   loop's positive minor words per request. *)
let stats_report_backend_and_alloc () =
  let word key line =
    List.find_map
      (fun w ->
        let k = key ^ "=" in
        if starts_with k w then
          Some (String.sub w (String.length k) (String.length w - String.length k))
        else None)
      (String.split_on_char ' ' line)
  in
  List.iter
    (fun (backend, name) ->
      with_server ~backend (fun port ->
          let conn = Dt_runtime.Client.connect ~port () in
          Fun.protect
            ~finally:(fun () -> Dt_runtime.Client.close conn)
            (fun () ->
              ignore (expect_ok "INIT" (Dt_runtime.Client.request_line conn "INIT 10"));
              let responses =
                Dt_runtime.Client.request_pipelined conn
                  (List.init 8 (fun i ->
                       Protocol.Submit
                         {
                           label = Printf.sprintf "t%d" i;
                           comm = 1.0;
                           comp = 0.5;
                           mem = 1.0;
                           arrival = 0.0;
                         }))
              in
              List.iter (fun r -> ignore (expect_ok "SUBMIT" r)) responses;
              let stats =
                expect_ok "STATS" (Dt_runtime.Client.request conn Protocol.Stats)
              in
              Alcotest.(check (option string))
                (name ^ ": backend") (Some name) (word "backend" stats);
              match Dt_runtime.Client.response_field "minor_words_per_req" stats with
              | Some w ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: minor_words_per_req %g > 0" name w)
                    true (w > 0.0)
              | None -> Alcotest.failf "%s: no minor_words_per_req in %s" name stats)))
    [
      ((`Auto : Dt_runtime.Poller.kind),
        if Dt_runtime.Poller.epoll_available then "epoll" else "select");
      (`Select, "select");
    ]

(* ------------------- binary framing and backpressure ----------------- *)

(* Arbitrary requests whose binary encoding must round-trip bit for bit
   (floats compare exactly: the codec ships their IEEE-754 bits). *)
let request_gen =
  QCheck2.Gen.(
    let nonneg = map (fun x -> float_of_int x /. 16.0) (int_range 0 100_000) in
    (* labels are non-empty (as in the text grammar) but otherwise
       arbitrary bytes: binary labels are not restricted to VCHAR *)
    let label = string_size ~gen:printable (int_range 1 64) in
    oneof
      [
        return Protocol.Poll;
        return Protocol.Entries;
        return Protocol.Stats;
        return Protocol.Drain;
        return Protocol.Quit;
        return Protocol.Shutdown;
        (let* label = label in
         let* comm = nonneg and* comp = nonneg and* mem = nonneg
         and* arrival = nonneg in
         return (Protocol.Submit { label; comm; comp; mem; arrival }));
        (let* capacity = map (fun x -> float_of_int x /. 8.0) (int_range 1 10_000) in
         let* policy = oneofl Engine.all_policies in
         let* queue_limit = opt (int_range 1 1_000_000) in
         let* binary = bool in
         return (Protocol.Init { capacity; policy; queue_limit; binary }));
      ])

(* The server's frame decoder over a buffer holding [s]. *)
let frame_of_string s =
  let buf = Iobuf.create () in
  Iobuf.add_string buf s;
  Protocol.frame_of_buf buf

let prop_binary_codec_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"binary codec: decode (encode requests) = requests"
       QCheck2.Gen.(list_size (int_range 0 20) request_gen)
       (fun requests ->
         let frame = Protocol.encode_request_frame requests in
         match frame_of_string frame with
         | Protocol.Frame (payload, used) when used = String.length frame -> (
             match Protocol.decode_requests payload with
             | Ok decoded when List.map Result.get_ok decoded = requests -> true
             | Ok _ -> QCheck2.Test.fail_report "decoded requests differ"
             | Error msg -> QCheck2.Test.fail_reportf "structural error: %s" msg)
         | _ -> QCheck2.Test.fail_report "frame did not extract in one piece"))

let binary_codec_edges () =
  (* a truncated frame is Need_more at every cut point, never an error *)
  let frame =
    Protocol.encode_request_frame
      [
        Protocol.Submit
          { label = "edge"; comm = 1.5; comp = 0.25; mem = 1.5; arrival = 0.0 };
        Protocol.Poll;
      ]
  in
  List.iter
    (fun k ->
      match frame_of_string (String.sub frame 0 k) with
      | Protocol.Need_more -> ()
      | Protocol.Frame _ -> Alcotest.failf "prefix of %d bytes yielded a frame" k
      | Protocol.Frame_error e ->
          Alcotest.failf "prefix of %d bytes errored: %s" k e)
    [ 0; 1; 3; 4; 5; String.length frame - 1 ];
  (* a frame at the size bound round-trips; one past it is structural *)
  let big_label = String.make 65_535 'x' in
  let big k =
    List.init k (fun i ->
        Protocol.Submit
          {
            label = (if i = 0 then "small" else big_label);
            comm = 1.0;
            comp = 1.0;
            mem = 1.0;
            arrival = 0.0;
          })
  in
  let fits = Protocol.encode_request_frame (big 15) in
  Alcotest.(check bool) "a ~1 MiB frame stays within the bound" true
    (String.length fits - 4 <= Protocol.max_frame_bytes);
  (match frame_of_string fits with
  | Protocol.Frame (payload, _) -> (
      match Protocol.decode_requests payload with
      | Ok decoded ->
          Alcotest.(check int) "max-length frame round-trips" 15
            (List.length decoded);
          Alcotest.(check bool) "all requests decode" true
            (List.for_all Result.is_ok decoded)
      | Error msg -> Alcotest.failf "max-length frame rejected: %s" msg)
  | _ -> Alcotest.fail "max-length frame did not extract");
  let oversized = Protocol.encode_request_frame (big 17) in
  Alcotest.(check bool) "oversized declared length is structural" true
    (match frame_of_string oversized with
    | Protocol.Frame_error _ -> true
    | _ -> false);
  (* a value error is recoverable: the bad request answers ERR parse and
     the stream continues at the next request *)
  let mixed =
    Protocol.encode_request_frame
      [
        Protocol.Submit
          { label = "bad"; comm = -1.0; comp = 1.0; mem = 1.0; arrival = 0.0 };
        Protocol.Entries;
      ]
  in
  (match frame_of_string mixed with
  | Protocol.Frame (payload, _) -> (
      match Protocol.decode_requests payload with
      | Ok [ Error _; Ok Protocol.Entries ] -> ()
      | Ok other ->
          Alcotest.failf "expected [Error; Ok Entries], got %d results"
            (List.length other)
      | Error msg -> Alcotest.failf "value error escalated to structural: %s" msg)
  | _ -> Alcotest.fail "mixed frame did not extract");
  (* unknown tags and truncated payloads are structural *)
  Alcotest.(check bool) "unknown tag is structural" true
    (Result.is_error (Protocol.decode_requests "Z"));
  let sub_payload =
    let f = Protocol.encode_request_frame [ List.nth (big 1) 0 ] in
    String.sub f 4 (String.length f - 4)
  in
  Alcotest.(check bool) "truncated request payload is structural" true
    (Result.is_error
       (Protocol.decode_requests
          (String.sub sub_payload 0 (String.length sub_payload - 3))))

(* A whole session in binary mode via the Client switch-over, while a
   plain text client shares the server: both protocols on one loop. *)
let binary_round_trip port =
  let conn = Dt_runtime.Client.connect ~port () in
  Fun.protect
    ~finally:(fun () -> Dt_runtime.Client.close conn)
    (fun () ->
      let init =
        expect_ok "INIT binary"
          (Dt_runtime.Client.request conn
             (Protocol.Init
                {
                  capacity = 10.0;
                  policy = Engine.Corrected Corrected_rules.OOSCMR;
                  queue_limit = None;
                  binary = true;
                }))
      in
      Alcotest.(check bool) "INIT acknowledges binary mode" true
        (let rec contains i =
           i + 11 <= String.length init
           && (String.sub init i 11 = "mode=binary" || contains (i + 1))
         in
         contains 0);
      (* a pipelined window: one frame in, one response frame per request *)
      let submits =
        List.init 5 (fun i ->
            Protocol.Submit
              {
                label = Printf.sprintf "b%d" i;
                comm = 1.0;
                comp = 0.5;
                mem = 1.0;
                arrival = 0.0;
              })
      in
      let responses = Dt_runtime.Client.request_pipelined conn submits in
      Alcotest.(check int) "one response per pipelined request" 5
        (List.length responses);
      List.iteri
        (fun i response ->
          match response with
          | [ line ] ->
              Alcotest.(check bool) "accepted in order" true
                (starts_with (Printf.sprintf "OK accepted id=%d" i) line)
          | _ -> Alcotest.fail "submit must answer exactly one line")
        responses;
      let drain = expect_ok "DRAIN" (Dt_runtime.Client.request conn Protocol.Drain) in
      Alcotest.(check (option (float 0.0)))
        "binary drain makespan" (Some 5.5)
        (Dt_runtime.Client.response_field "makespan" drain);
      (* a multi-line response is one frame: no announced-count parsing *)
      (match Dt_runtime.Client.request conn Protocol.Entries with
      | head :: entries ->
          Alcotest.(check bool) "ENTRIES head" true (starts_with "OK n=5" head);
          Alcotest.(check int) "all ENTRY lines in the frame" 5
            (List.length entries)
      | [] -> Alcotest.fail "empty ENTRIES response");
      ignore (Dt_runtime.Client.request conn Protocol.Quit))

let mixed_text_and_binary_clients () =
  with_server (fun port ->
      let text = Dt_runtime.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Dt_runtime.Client.close text)
        (fun () ->
          (* interleave: text INIT, whole binary session, then the text
             session continues unharmed *)
          ignore
            (expect_ok "text INIT"
               (Dt_runtime.Client.request_line text "INIT 10 OOSCMR"));
          binary_round_trip port;
          ignore
            (expect_ok "text SUBMIT after binary neighbour"
               (Dt_runtime.Client.request_line text "SUBMIT t 1 0.5 1"));
          let drain =
            expect_ok "text DRAIN" (Dt_runtime.Client.request text Protocol.Drain)
          in
          Alcotest.(check (option (float 0.0)))
            "text session unaffected" (Some 1.5)
            (Dt_runtime.Client.response_field "makespan" drain)))

let partial_frame_reassembly () =
  (* the negotiating INIT, then a frame of three SUBMITs, delivered one
     byte at a time: the server must reassemble and answer exactly four
     response frames (INIT + one per SUBMIT) *)
  with_server (fun port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let submits =
            List.init 3 (fun i ->
                Protocol.Submit
                  {
                    label = Printf.sprintf "s%d" i;
                    comm = 1.0;
                    comp = 0.5;
                    mem = 1.0;
                    arrival = 0.0;
                  })
          in
          let bytes =
            "INIT 10 OOSCMR binary\n" ^ Protocol.encode_request_frame submits
          in
          String.iter
            (fun ch ->
              ignore (Unix.write_substring fd (String.make 1 ch) 0 1);
              if Random.int 8 = 0 then Unix.sleepf 0.001)
            bytes;
          let ic = Unix.in_channel_of_descr fd in
          let read_frame () =
            let header = Bytes.create 4 in
            really_input ic header 0 4;
            let len =
              (Char.code (Bytes.get header 0) lsl 24)
              lor (Char.code (Bytes.get header 1) lsl 16)
              lor (Char.code (Bytes.get header 2) lsl 8)
              lor Char.code (Bytes.get header 3)
            in
            let payload = Bytes.create len in
            really_input ic payload 0 len;
            match Protocol.decode_responses (Bytes.to_string payload) with
            | Ok lines -> lines
            | Error msg -> Alcotest.failf "bad response frame: %s" msg
          in
          (match read_frame () with
          | [ line ] ->
              Alcotest.(check bool) "INIT answered in binary" true
                (starts_with "OK capacity=10" line)
          | _ -> Alcotest.fail "INIT: expected a single-line frame");
          List.iteri
            (fun i _ ->
              match read_frame () with
              | [ line ] ->
                  Alcotest.(check bool)
                    (Printf.sprintf "submit %d accepted" i)
                    true
                    (starts_with (Printf.sprintf "OK accepted id=%d" i) line)
              | _ -> Alcotest.fail "SUBMIT: expected a single-line frame")
            submits))

let backpressure_closes_non_reader () =
  (* a client that requests far more output than it reads: the server's
     per-connection output queue is bounded — once a batch pushes the
     pending bytes past the bound the connection is dropped, and the
     rest of the server is unharmed *)
  with_server ~max_output_bytes:65_536 (fun port ->
      let fd = raw_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let oc = Unix.out_channel_of_descr fd in
          let ic = Unix.in_channel_of_descr fd in
          output_string oc "INIT 1000000 LCMR 100000\n";
          flush oc;
          ignore (input_line ic);
          for i = 0 to 1999 do
            Printf.fprintf oc "SUBMIT t%d 1 0.5 1\n" i
          done;
          flush oc;
          for _ = 0 to 1999 do
            ignore (input_line ic)
          done;
          output_string oc "DRAIN\n";
          flush oc;
          ignore (input_line ic);
          (* after the drain, each ENTRIES response lists all 2000
             entries (>100 KB); ask for 100 of them in one write and
             read NONE of the ~16 MiB of output — far more than kernel
             socket buffers can absorb, so the server's pending output
             must cross the 64 KiB bound and the connection must be
             dropped. Not reading means the drop is invisible until a
             probe write lands on the closed socket (RST), so poll with
             probes instead of reads. *)
          for _ = 1 to 100 do
            output_string oc "ENTRIES\n"
          done;
          flush oc;
          let deadline = Unix.gettimeofday () +. 10.0 in
          let rec probe () =
            if Unix.gettimeofday () > deadline then
              Alcotest.fail
                "server kept the non-reading connection open past the \
                 output bound"
            else
              match Unix.write_substring fd "STATS\n" 0 6 with
              | _ ->
                  Unix.sleepf 0.05;
                  probe ()
              | exception
                  Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                  ()
          in
          probe ());
      (* the rest of the server is unharmed *)
      round_trip port)

let select_backend_round_trip () =
  (* the portable fallback serves the same protocol, text and binary *)
  with_server ~backend:`Select (fun port ->
      round_trip port;
      binary_round_trip port)

let select_max_conns_rejected () =
  let server = Dt_runtime.Server.create ~port:0 () in
  (match
     Dt_runtime.Server.run ~backend:`Select
       ~max_conns:(Dt_runtime.Server.select_conn_limit + 1)
       server
   with
  | () -> Alcotest.fail "select backend accepted max_conns over FD_SETSIZE"
  | exception Invalid_argument _ -> ());
  (* under the limit the validation passes (we only check it does not
     raise before the loop: shut the server down immediately) *)
  Alcotest.(check bool) "select fd limit is positive" true
    (Dt_runtime.Server.select_conn_limit > 0)

let client_survives_server_close () =
  (* writing into a dead server must raise, not SIGPIPE the process *)
  let server = Dt_runtime.Server.create ~port:0 () in
  let port = Dt_runtime.Server.port server in
  let domain = Domain.spawn (fun () -> Dt_runtime.Server.run server) in
  let conn = Dt_runtime.Client.connect ~port () in
  ignore (expect_ok "SHUTDOWN" (Dt_runtime.Client.request conn Protocol.Shutdown));
  Domain.join domain;
  for _ = 1 to 3 do
    (* the first send after the close may still be buffered by the
       kernel; by the second the reset has arrived and without the
       SIGPIPE guard the whole test runner would die here *)
    match Dt_runtime.Client.request conn Protocol.Stats with
    | exception (Failure _ | Sys_error _ | Unix.Unix_error _) -> ()
    | _ -> Alcotest.fail "request succeeded against a dead server"
  done;
  Dt_runtime.Client.close conn

(* --------------------- zero-copy I/O path --------------------------- *)

let u32_be_string v =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int v);
  Bytes.to_string b

(* the into-buffer encoders must spell out exactly the bytes of the
   string encoders they replace on the hot path *)
let prop_encode_into_identical =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"encode_response_frame_into / frame_into = string encoders, byte for byte"
       ~print:(fun lines -> String.concat " | " lines)
       QCheck2.Gen.(
         list_size (int_range 0 12) (string_size ~gen:printable (int_range 0 60)))
       (fun lines ->
         let buf = Iobuf.create ~chunk_size:16 () in
         Protocol.encode_response_frame_into buf lines;
         let into = Iobuf.contents buf in
         let via_string = Reference.Frame.encode_response_frame lines in
         if into <> via_string then
           QCheck2.Test.fail_reportf "response frame diverged:\n%S\n%S" into
             via_string;
         let payload = String.concat "," lines in
         let fbuf = Iobuf.create ~chunk_size:16 () in
         Protocol.frame_into fbuf payload;
         Iobuf.contents fbuf = u32_be_string (String.length payload) ^ payload))

(* the server writes every answer through Session.emit_into: appended
   after whatever the connection already queued, text must be the lines
   '\n'-terminated and binary exactly one response frame *)
let prop_emit_into_identical =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"Session.emit_into = text lines / response frame, byte for byte"
       ~print:(fun (queued, binary, lines) ->
         Printf.sprintf "%S %b %s" queued binary (String.concat " | " lines))
       QCheck2.Gen.(
         triple
           (string_size ~gen:printable (int_range 0 40))
           bool
           (list_size (int_range 0 12)
              (string_size ~gen:printable (int_range 0 60))))
       (fun (queued, binary, lines) ->
         let buf = Iobuf.create ~chunk_size:16 () in
         Iobuf.add_string buf queued;
         Session.emit_into buf ~binary lines;
         let expected =
           if binary then Reference.Frame.encode_response_frame lines
           else String.concat "" (List.map (fun l -> l ^ "\n") lines)
         in
         Iobuf.contents buf = queued ^ expected))

(* the chunked-buffer frame decoder agrees with the flat-string one on
   every possible truncation, and leaves trailing bytes for the next
   frame *)
let prop_frame_of_buf_matches_extract =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"frame_of_buf = extract_frame on every prefix"
       ~print:(fun (payload, extra) -> Printf.sprintf "%S + %S" payload extra)
       QCheck2.Gen.(
         pair
           (string_size ~gen:printable (int_range 0 80))
           (string_size ~gen:printable (int_range 0 10)))
       (fun (payload, extra) ->
         let full = u32_be_string (String.length payload) ^ payload in
         let n = String.length full in
         for k = 0 to n - 1 do
           let prefix = String.sub full 0 k in
           let buf = Iobuf.create ~chunk_size:16 () in
           Iobuf.add_string buf prefix;
           match (Reference.Frame.extract_frame prefix ~pos:0, Protocol.frame_of_buf buf) with
           | Protocol.Need_more, Protocol.Need_more ->
               if Iobuf.contents buf <> prefix then
                 QCheck2.Test.fail_reportf "Need_more consumed bytes at %d" k
           | _, _ -> QCheck2.Test.fail_reportf "constructors diverged at %d" k
         done;
         let buf = Iobuf.create ~chunk_size:16 () in
         Iobuf.add_string buf (full ^ extra);
         match Protocol.frame_of_buf buf with
         | Protocol.Frame (p, used) ->
             p = payload && used = n && Iobuf.contents buf = extra
         | _ -> false))

let frame_error_messages_agree () =
  (* a structurally broken header must read the same from both decoders,
     including the sign-wrapped spelling of lengths past 2^31 *)
  List.iter
    (fun len_field ->
      let bogus = u32_be_string len_field ^ "xx" in
      let buf = Iobuf.create () in
      Iobuf.add_string buf bogus;
      match (Reference.Frame.extract_frame bogus ~pos:0, Protocol.frame_of_buf buf) with
      | Protocol.Frame_error a, Protocol.Frame_error b ->
          Alcotest.(check string) "identical structural error" a b
      | _ -> Alcotest.fail "oversized header must be a structural error")
    [ Protocol.max_frame_bytes + 1; 0x7fffffff; 0xffffffff ]

let large_frame_byte_by_byte () =
  (* the quadratic-reassembly regression: a large frame trickled one
     byte per read event must cost O(frame) total, not O(frame^2) —
     the old Buffer.contents-per-wakeup path would sit here for minutes *)
  let payload = String.init (256 * 1024) (fun i -> Char.chr (i land 0xff)) in
  let framed = u32_be_string (String.length payload) ^ payload in
  let buf = Iobuf.create () in
  let rneed = ref 4 in
  let extracted = ref None in
  let t0 = Unix.gettimeofday () in
  String.iter
    (fun c ->
      Iobuf.add_char buf c;
      (* the server's reassembly loop: only consult the decoder once the
         bytes it already announced needing have arrived *)
      if Iobuf.length buf >= !rneed then
        match Protocol.frame_of_buf buf with
        | Protocol.Need_more ->
            rneed :=
              if Iobuf.length buf >= 4 then 4 + Iobuf.peek_u32_be buf else 4
        | Protocol.Frame (p, _) -> extracted := Some p
        | Protocol.Frame_error m -> Alcotest.failf "frame error: %s" m)
    framed;
  let wall = Unix.gettimeofday () -. t0 in
  (match !extracted with
  | Some p ->
      Alcotest.(check bool) "payload intact" true (String.equal p payload)
  | None -> Alcotest.fail "frame never completed");
  Alcotest.(check bool)
    (Printf.sprintf "byte-by-byte reassembly stayed linear (%.2f s)" wall)
    true (wall < 5.0)

let short_writes_resume () =
  (* fault injection on the writev path: cycle tiny per-call byte caps so
     every flush stops at an arbitrary point, often mid-iovec — the
     resume logic must still deliver every response byte in order, on
     both the text and the binary path *)
  let caps = [| 1; 3; 7; 16; 64; 1024 |] in
  let calls = ref 0 in
  Dt_runtime.Net.writev_cap :=
    (fun () ->
      let c = caps.(!calls mod Array.length caps) in
      incr calls;
      Some c);
  Fun.protect
    ~finally:(fun () -> Dt_runtime.Net.writev_cap := (fun () -> None))
    (fun () ->
      with_server (fun port ->
          let conn = Dt_runtime.Client.connect ~port () in
          Fun.protect
            ~finally:(fun () -> Dt_runtime.Client.close conn)
            (fun () ->
              ignore
                (expect_ok "INIT"
                   (Dt_runtime.Client.request_line conn
                      "INIT 1000000 LCMR 100000"));
              for i = 0 to 199 do
                ignore
                  (expect_ok "SUBMIT"
                     (Dt_runtime.Client.request conn
                        (Protocol.Submit
                           {
                             label = Printf.sprintf "t%d" i;
                             comm = 1.0;
                             comp = 0.5;
                             mem = 1.0;
                             arrival = 0.0;
                           })))
              done;
              ignore
                (expect_ok "DRAIN"
                   (Dt_runtime.Client.request conn Protocol.Drain));
              match Dt_runtime.Client.request conn Protocol.Entries with
              | header :: entries ->
                  ignore (expect_ok "ENTRIES" [ header ]);
                  Alcotest.(check int)
                    "all 200 entries intact across short writes" 200
                    (List.length entries);
                  List.iter
                    (fun line ->
                      Alcotest.(check bool)
                        "ENTRY line survives resumption" true
                        (starts_with "ENTRY" line))
                    entries
              | [] -> Alcotest.fail "empty ENTRIES response");
          Alcotest.(check bool) "the cap hook actually fired" true (!calls > 10);
          (* same server, binary framing through the same faulted path *)
          let bconn = Dt_runtime.Client.connect ~port () in
          Fun.protect
            ~finally:(fun () -> Dt_runtime.Client.close bconn)
            (fun () ->
              ignore
                (expect_ok "INIT binary"
                   (Dt_runtime.Client.request bconn
                      (Protocol.Init
                         {
                           capacity = 1000000.0;
                           policy = Engine.Dynamic Dynamic_rules.LCMR;
                           queue_limit = Some 100000;
                           binary = true;
                         })));
              let submits =
                List.init 64 (fun k ->
                    Protocol.Submit
                      {
                        label = Printf.sprintf "b%d" k;
                        comm = 1.0;
                        comp = 0.5;
                        mem = 1.0;
                        arrival = 0.0;
                      })
              in
              let responses =
                Dt_runtime.Client.request_pipelined bconn submits
              in
              Alcotest.(check int) "pipelined responses" 64
                (List.length responses);
              List.iter (fun r -> ignore (expect_ok "SUBMIT(bin)" r)) responses;
              ignore
                (expect_ok "DRAIN(bin)"
                   (Dt_runtime.Client.request bconn Protocol.Drain));
              match Dt_runtime.Client.request bconn Protocol.Entries with
              | header :: entries ->
                  ignore (expect_ok "ENTRIES(bin)" [ header ]);
                  Alcotest.(check int) "binary entries intact" 64
                    (List.length entries)
              | [] -> Alcotest.fail "empty binary ENTRIES response")))

(* DRAIN answers from the engine's running figures, so its cost is the
   new work, not the session's length: after 20,000 scheduled entries, a
   DRAIN with nothing pending allocates under 1,000 minor words and
   repeats the first DRAIN's answer (a rebuild of the whole schedule
   for its makespan allocates ~100,000 words). *)
let empty_drain_is_cheap () =
  let s = Session.create () in
  let ask request = fst (Session.handle_request s request) in
  ignore
    (ask
       (Protocol.Init
          {
            capacity = 10.0;
            policy = Engine.Corrected Corrected_rules.OOSCMR;
            queue_limit = None;
            binary = false;
          }));
  for i = 0 to 19_999 do
    let comm = float_of_int (1 + (i mod 7)) and comp = float_of_int (1 + (i mod 5)) in
    match
      ask (Protocol.Submit { label = "t"; comm; comp; mem = float_of_int (1 + (i mod 3)); arrival = 0.0 })
    with
    | [ ok ] when String.length ok >= 2 && String.sub ok 0 2 = "OK" -> ()
    | r -> Alcotest.failf "SUBMIT %d: %s" i (String.concat " | " r)
  done;
  let first = ask Protocol.Drain in
  Alcotest.(check (option (float 0.0)))
    "all scheduled" (Some 20_000.0)
    (Dt_runtime.Client.response_field "scheduled" (String.concat "" first));
  let w0 = Gc.minor_words () in
  let again = ask Protocol.Drain in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (list string)) "the same makespan and count" first again;
  if words >= 1_000.0 then
    Alcotest.failf "a DRAIN with nothing pending allocated %.0f minor words" words

(* The replay's [gc.minor_words] counts what the client allocated even
   when no minor collection happens during it, as on a short trace
   replayed right after one. *)
let replay_counts_minor_words () =
  let trace = Dt_trace.Trace.make ~name:"wire" tasks_for_wire in
  with_server (fun port ->
      let conn = Dt_runtime.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Dt_runtime.Client.close conn)
        (fun () ->
          Gc.minor ();
          let r = Dt_runtime.Client.replay conn ~trace ~rate:Float.infinity () in
          let w = r.Dt_runtime.Client.gc.Dt_runtime.Client.minor_words in
          if not (w > 0.0) then Alcotest.failf "replay minor_words %g, expected > 0" w))

let suite =
  [
    prop_zero_arrivals_are_offline;
    prop_online_schedules_valid;
    Alcotest.test_case "arrival times are honoured" `Quick arrivals_are_honoured;
    Alcotest.test_case "engine chains across drains" `Quick engine_is_resumable;
    Alcotest.test_case "admission control and backpressure" `Quick admission_control;
    Alcotest.test_case "protocol: well-formed requests" `Quick protocol_parses;
    Alcotest.test_case "protocol: malformed requests rejected" `Quick
      protocol_rejects_malformed;
    Alcotest.test_case "session conversation" `Quick session_conversation;
    Alcotest.test_case "TCP serve/client loopback" `Quick tcp_end_to_end;
    Alcotest.test_case "no head-of-line blocking (1-domain pool)" `Quick
      head_of_line_blocking;
    Alcotest.test_case "slow-loris client does not stall others" `Quick slow_loris;
    Alcotest.test_case "disconnect mid-framed-response survives" `Quick
      disconnect_mid_response;
    Alcotest.test_case "engine fault answers ERR internal" `Quick
      engine_fault_is_contained;
    Alcotest.test_case "hostname resolution (localhost)" `Quick hostname_resolution;
    Alcotest.test_case "connection limit answers ERR busy" `Quick connection_limit;
    Alcotest.test_case "idle timeout reaps silent connections" `Quick (fun () ->
        idle_timeout_reaps ());
    Alcotest.test_case "pipelined requests keep order" `Quick pipelined_requests;
    Alcotest.test_case "SHUTDOWN drains with clients open" `Quick
      shutdown_drains_open_connections;
    Alcotest.test_case "requests pipelined after QUIT get no answer" `Quick
      quit_drops_pipelined_tail;
    Alcotest.test_case "STATS reports backend and minor words per request"
      `Quick stats_report_backend_and_alloc;
    prop_binary_codec_roundtrip;
    Alcotest.test_case "binary codec: truncation, bounds, recovery" `Quick
      binary_codec_edges;
    Alcotest.test_case "mixed text and binary clients coexist" `Quick
      mixed_text_and_binary_clients;
    Alcotest.test_case "partial binary frames reassemble across reads" `Quick
      partial_frame_reassembly;
    Alcotest.test_case "backpressure closes a non-reading client" `Quick
      backpressure_closes_non_reader;
    Alcotest.test_case "select backend serves text and binary" `Quick
      select_backend_round_trip;
    Alcotest.test_case "select backend on idle timeout" `Quick (fun () ->
        idle_timeout_reaps ~backend:`Select ());
    Alcotest.test_case "select backend rejects max_conns over FD_SETSIZE" `Quick
      select_max_conns_rejected;
    Alcotest.test_case "client survives server close (SIGPIPE)" `Quick
      client_survives_server_close;
    prop_encode_into_identical;
    prop_emit_into_identical;
    prop_frame_of_buf_matches_extract;
    Alcotest.test_case "frame errors agree across decoders" `Quick
      frame_error_messages_agree;
    Alcotest.test_case "short writev calls resume mid-iovec" `Quick
      short_writes_resume;
    Alcotest.test_case "256 KiB frame fed byte-by-byte reassembles linearly"
      `Quick large_frame_byte_by_byte;
    Alcotest.test_case "replay counts client minor words without a collection"
      `Quick replay_counts_minor_words;
    Alcotest.test_case "an empty DRAIN after 20,000 entries allocates little" `Quick
      empty_drain_is_cheap;
  ]
