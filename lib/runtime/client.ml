open Dt_core

type connection = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable binary : bool; (* negotiated by a sent [INIT ... binary] *)
}

let connect ?(host = "127.0.0.1") ~port () =
  Net.ignore_sigpipe ();
  let addr = Net.resolve ~host ~port in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    binary = false;
  }

let close conn =
  (try close_out conn.oc with Sys_error _ -> ());
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* [OK new=3 ...] and [OK n=3] announce that many extra ENTRY lines. *)
let announced_lines head =
  let count_of key =
    String.split_on_char ' ' head
    |> List.find_map (fun field ->
           match String.split_on_char '=' field with
           | [ k; v ] when k = key -> int_of_string_opt v
           | _ -> None)
  in
  match count_of "new" with
  | Some n -> n
  | None -> ( match count_of "n" with Some n -> n | None -> 0)

let read_response conn ~framed =
  match input_line conn.ic with
  | exception End_of_file -> failwith "Client: server closed the connection"
  | head ->
      let extra = if framed then announced_lines head else 0 in
      let rec read k acc =
        if k = 0 then List.rev acc
        else
          match input_line conn.ic with
          | exception End_of_file ->
              failwith "Client: server closed the connection mid-response"
          | line -> read (k - 1) (line :: acc)
      in
      head :: read extra []

let send conn line =
  output_string conn.oc (line ^ "\n");
  flush conn.oc

let framed_request = function
  | Protocol.Poll | Protocol.Entries -> true
  | _ -> false

(* One binary response frame = one request's complete response: no
   announced-count parsing, the frame boundary is the response
   boundary. *)
let read_frame conn =
  let header = Bytes.create 4 in
  (try really_input conn.ic header 0 4
   with End_of_file -> failwith "Client: server closed the connection");
  let len =
    (Char.code (Bytes.get header 0) lsl 24)
    lor (Char.code (Bytes.get header 1) lsl 16)
    lor (Char.code (Bytes.get header 2) lsl 8)
    lor Char.code (Bytes.get header 3)
  in
  if len > Protocol.max_frame_bytes then
    failwith (Printf.sprintf "Client: response frame of %d bytes exceeds bound" len);
  let payload = Bytes.create len in
  (try really_input conn.ic payload 0 len
   with End_of_file -> failwith "Client: server closed the connection mid-frame");
  match Protocol.decode_responses (Bytes.unsafe_to_string payload) with
  | Ok lines -> lines
  | Error msg -> failwith ("Client: malformed response frame: " ^ msg)

let send_frame conn requests =
  output_string conn.oc (Protocol.encode_request_frame requests);
  flush conn.oc

let request conn req =
  match req with
  | Protocol.Init { binary = true; _ } when not conn.binary ->
      (* negotiation: the INIT travels as text, its response is already
         a binary frame *)
      send conn (Protocol.render_request req);
      conn.binary <- true;
      read_frame conn
  | _ ->
      if conn.binary then begin
        send_frame conn [ req ];
        read_frame conn
      end
      else begin
        send conn (Protocol.render_request req);
        read_response conn ~framed:(framed_request req)
      end

let request_line conn line =
  if conn.binary then
    (* the raw line cannot travel on a binary connection; re-encode it *)
    match Protocol.parse_request line with
    | Error msg -> [ Protocol.err ~code:"parse" msg ]
    | Ok req ->
        send_frame conn [ req ];
        read_frame conn
  else if Protocol.switches_to_binary line then begin
    send conn line;
    conn.binary <- true;
    read_frame conn
  end
  else begin
    send conn line;
    let framed =
      match Protocol.parse_request line with
      | Ok req -> framed_request req
      | Error _ -> false
    in
    read_response conn ~framed
  end

let request_pipelined conn requests =
  if conn.binary then begin
    (* the whole window in one frame: the server decodes it into a
       single engine pass; one response frame comes back per request *)
    send_frame conn requests;
    List.map (fun _ -> read_frame conn) requests
  end
  else begin
    List.iter
      (fun req -> output_string conn.oc (Protocol.render_request req ^ "\n"))
      requests;
    flush conn.oc;
    List.map (fun req -> read_response conn ~framed:(framed_request req)) requests
  end

let response_field key line =
  String.split_on_char ' ' line
  |> List.find_map (fun field ->
         match String.split_on_char '=' field with
         | [ k; v ] when k = key -> float_of_string_opt v
         | _ -> None)

type gc_stats = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type replay = {
  makespan : float;
  offline_makespan : float;
  submitted : int;
  accepted : int;
  rejected : int;
  wall_s : float;
  requests_per_s : float;
  p50_latency_s : float;
  p99_latency_s : float;
  p999_latency_s : float;
  gc : gc_stats;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (Float.of_int (n - 1) *. q +. 0.5)))

let expect_ok what = function
  | line :: _ when String.length line >= 2 && String.sub line 0 2 = "OK" -> line
  | line :: _ -> failwith (Printf.sprintf "Client: %s failed: %s" what line)
  | [] -> failwith (Printf.sprintf "Client: %s: empty response" what)

let replay conn ~trace ~rate ?(policy = Engine.Corrected Corrected_rules.OOSCMR)
    ?(capacity_factor = 1.5) ?(binary = false) ?(pipeline = 1) () =
  if pipeline < 1 then invalid_arg "Client.replay: pipeline must be >= 1";
  let capacity = Dt_trace.Trace.min_capacity trace *. capacity_factor in
  let tasks = trace.Dt_trace.Trace.tasks in
  let gc0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore
    (expect_ok "INIT"
       (request conn (Protocol.Init { capacity; policy; queue_limit = None; binary })));
  let latencies = ref [] in
  let accepted = ref 0 and rejected = ref 0 and submitted = ref 0 in
  let submit_requests =
    List.mapi
      (fun i (task : Task.t) ->
        let arrival =
          if rate = Float.infinity then 0.0 else Float.of_int i /. rate
        in
        Protocol.Submit
          {
            label = task.Task.label;
            comm = task.Task.comm;
            comp = task.Task.comp;
            mem = task.Task.mem;
            arrival;
          })
      tasks
  in
  (* windows of [pipeline] requests in flight together; each request in
     a window is charged the window's round trip (what a caller waiting
     on the whole window experiences) *)
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | req :: rest -> take (k - 1) (req :: acc) rest
  in
  let rec windows = function
    | [] -> ()
    | pending ->
        let window, rest = take pipeline [] pending in
        let s0 = Unix.gettimeofday () in
        let responses = request_pipelined conn window in
        let dt = Unix.gettimeofday () -. s0 in
        List.iter
          (fun response ->
            latencies := dt :: !latencies;
            incr submitted;
            match response with
            | line :: _ when String.length line >= 2 && String.sub line 0 2 = "OK"
              ->
                incr accepted
            | _ -> incr rejected)
          responses;
        windows rest
  in
  windows submit_requests;
  let drain_line = expect_ok "DRAIN" (request conn Protocol.Drain) in
  let wall_s = Unix.gettimeofday () -. t0 in
  let makespan =
    match response_field "makespan" drain_line with
    | Some m -> m
    | None -> failwith "Client: DRAIN response has no makespan"
  in
  let offline =
    let engine = Engine.create ~policy ~capacity () in
    List.iter (fun task -> ignore (Engine.submit engine task)) tasks;
    ignore (Engine.drain engine);
    Engine.makespan engine
  in
  let gc1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  let sorted = Array.of_list !latencies in
  Array.sort Float.compare sorted;
  let requests = !submitted + 2 in
  {
    makespan;
    offline_makespan = offline;
    submitted = !submitted;
    accepted = !accepted;
    rejected = !rejected;
    wall_s;
    requests_per_s = (if wall_s > 0.0 then Float.of_int requests /. wall_s else 0.0);
    p50_latency_s = percentile sorted 0.5;
    p99_latency_s = percentile sorted 0.99;
    p999_latency_s = percentile sorted 0.999;
    gc =
      {
        minor_words = w1 -. w0;
        major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
        minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
        major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      };
  }
