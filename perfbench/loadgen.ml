(* The serve-hf load generator: one single-threaded process driving the
   server over two loopback connections in a closed loop. One connection
   speaks text, one request in flight; the other negotiates the binary
   framing and sends SUBMITs 16 to a frame. The load runs in passes: in
   each pass the two connections share out the traces, each trace as one
   whole session (connect, INIT at 1.5 m_c with OOSCMR, every task as
   SUBMIT with arrival 0, DRAIN, POLL, QUIT), and the pass ends when the
   last session has quit. A pass is the service's counterpart of an
   offline pass over the same traces. Requests are encoded and responses
   decoded with Protocol's own codecs; each response is timestamped as it
   is decoded, so every request gets its own latency even when sixteen
   travel in one frame. *)

open Dt_runtime
module Trace = Dt_trace.Trace

let frame_submits = 16

type expect = Init | Submit of int | Drain | Poll of int | Quit

(* What one write sends, and the responses it waits for. *)
type message = { bytes : string; expects : expect array }

let script ~binary (trace : Trace.t) =
  let capacity = Trace.min_capacity trace *. Work.capacity_factor in
  let policy = Engine.Corrected Dt_core.Corrected_rules.OOSCMR in
  let tasks = Array.of_list trace.Trace.tasks in
  let n = Array.length tasks in
  let submit i =
    let t = tasks.(i) in
    Protocol.Submit
      { label = t.Dt_core.Task.label; comm = t.comm; comp = t.comp; mem = t.mem; arrival = 0.0 }
  in
  let text req = Protocol.render_request req ^ "\n" in
  let single req e =
    { bytes = (if binary then Protocol.encode_request_frame [ req ] else text req); expects = [| e |] }
  in
  (* the INIT travels as text in both framings; its binary token switches
     everything after it, its own response included *)
  let init =
    { bytes = text (Protocol.Init { capacity; policy; queue_limit = None; binary }); expects = [| Init |] }
  in
  let submits =
    if binary then
      List.init ((n + frame_submits - 1) / frame_submits) (fun k ->
          let lo = k * frame_submits in
          let len = min frame_submits (n - lo) in
          {
            bytes = Protocol.encode_request_frame (List.init len (fun j -> submit (lo + j)));
            expects = Array.init len (fun j -> Submit (lo + j));
          })
    else List.init n (fun i -> single (submit i) (Submit i))
  in
  Array.of_list
    ((init :: submits) @ [ single Protocol.Drain Drain; single Protocol.Poll (Poll n); single Protocol.Quit Quit ])

type result = {
  text : float array;  (** latency of each timed response on the text connection, in s *)
  binary : float array;  (** the same on the binary connection *)
  passes : float array;  (** wall time of each timed pass, in seconds *)
  timed_responses : int;  (** responses received during the timed passes *)
  requests : int;
  responses : int;
  errors : (string * int) list;  (** ERR responses by code *)
  dropped : int;  (** requests whose connection closed or stalled unanswered *)
  refused : int;  (** connections refused *)
  sessions : int;  (** sessions completed *)
  bad_sessions : int;  (** sessions with an unexpected response *)
  drains : (int * float) list;  (** trace index and drained makespan, per session *)
}

(* A growable float array. *)
type samples = { mutable data : float array; mutable len : int }

let push s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

type conn = {
  binary : bool;
  scripts : message array array;  (** per trace *)
  latencies : samples;
  mutable fd : Unix.file_descr option;
  mutable trace : int;
  mutable next : int;  (** next message of the script *)
  mutable inflight : message option;
  mutable answered : int;  (** responses received to [inflight] *)
  mutable sent_at : float;
  mutable input : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable poll_left : int;  (** text POLL: ENTRY lines still due *)
  mutable poll_seen : Bytes.t;
  mutable ok : bool;
  mutable drain : float option;
  mutable refused_once : bool;  (** the server refused it: stop *)
}

type totals = {
  mutable requests : int;
  mutable responses : int;
  mutable timed_responses : int;
  mutable errors : (string * int) list;
  mutable dropped : int;
  mutable refused : int;
  mutable sessions : int;
  mutable bad_sessions : int;
  mutable drains : (int * float) list;
  traces : int;  (** sessions in a pass *)
  deadline : float;  (** no pass starts after it *)
  mutable handed : int;  (** sessions of the current pass handed out *)
  mutable ended : int;  (** sessions of the current pass over, well or not *)
  mutable pass_start : float;
  mutable warmup : int;  (** untimed passes still to run *)
  mutable passes : float list;
  mutable finished : bool;
}

let field key line =
  String.split_on_char ' ' line
  |> List.find_map (fun f ->
         match String.split_on_char '=' f with [ k; v ] when k = key -> Some v | _ -> None)

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let note_error tot line =
  let code = match String.split_on_char ' ' line with _ :: c :: _ -> c | _ -> "?" in
  let n = try List.assoc code tot.errors with Not_found -> 0 in
  tot.errors <- (code, n + 1) :: List.remove_assoc code tot.errors

let mark_entry c line =
  match String.split_on_char ' ' line with
  | "ENTRY" :: id :: _ -> (
      match int_of_string_opt id with
      | Some i when i >= 0 && i < Bytes.length c.poll_seen && Bytes.get c.poll_seen i = '\000' ->
          Bytes.set c.poll_seen i '\001'
      | _ -> c.ok <- false)
  | _ -> c.ok <- false

(* The head line of one response, checked against what was asked. *)
let check_head tot c expect line =
  if starts_with "ERR " line then begin
    note_error tot line;
    c.ok <- false
  end
  else
    match expect with
    | Init -> if not (starts_with "OK capacity=" line) then c.ok <- false
    | Submit i -> if line <> Printf.sprintf "OK accepted id=%d" i then c.ok <- false
    | Drain -> (
        match Option.bind (field "makespan" line) float_of_string_opt with
        | Some m -> c.drain <- Some m
        | None -> c.ok <- false)
    | Poll n -> (
        c.poll_seen <- Bytes.make n '\000';
        match Option.bind (field "new" line) int_of_string_opt with
        | Some k when k = n -> c.poll_left <- k
        | _ -> c.ok <- false)
    | Quit -> if line <> "OK bye" then c.ok <- false

(* A session of the current pass is over. After the last one the pass
   is timed (unless it was a warm-up) and the next one starts, unless the
   deadline has passed: a run always times at least one whole pass. *)
let session_ended tot =
  tot.ended <- tot.ended + 1;
  if tot.ended = tot.traces then begin
    let now = Spans.now () in
    if tot.warmup > 0 then tot.warmup <- tot.warmup - 1
    else tot.passes <- (now -. tot.pass_start) :: tot.passes;
    if tot.warmup = 0 && tot.passes <> [] && now >= tot.deadline then tot.finished <- true
    else begin
      tot.handed <- 0;
      tot.ended <- 0;
      tot.pass_start <- now
    end
  end

let close_session tot c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None;
  c.inflight <- None;
  c.lo <- 0;
  c.hi <- 0;
  c.poll_left <- 0;
  session_ended tot

(* A response is complete: timestamp it, and end the session after QUIT. *)
let complete tot c now =
  if tot.warmup = 0 then begin
    push c.latencies (now -. c.sent_at);
    tot.timed_responses <- tot.timed_responses + 1
  end;
  tot.responses <- tot.responses + 1;
  c.answered <- c.answered + 1;
  match c.inflight with
  | Some m when c.answered = Array.length m.expects ->
      c.inflight <- None;
      if m.expects.(0) = Quit then begin
        let polled = Bytes.for_all (fun b -> b = '\001') c.poll_seen in
        (match c.drain with
        | Some d when c.ok && polled -> tot.drains <- (c.trace, d) :: tot.drains
        | _ -> tot.bad_sessions <- tot.bad_sessions + 1);
        tot.sessions <- tot.sessions + 1;
        close_session tot c
      end
  | _ -> ()

let expected c = match c.inflight with Some m -> m.expects.(c.answered) | None -> Quit

let rec newline b i hi =
  if i >= hi then None else if Bytes.get b i = '\n' then Some i else newline b (i + 1) hi

(* Decode every complete response in the input buffer. *)
let decode tot c =
  let continue = ref true in
  while !continue && c.inflight <> None do
    let avail = c.hi - c.lo in
    if c.binary then
      if avail < 4 then continue := false
      else begin
        let len = Int32.to_int (Bytes.get_int32_be c.input c.lo) land 0xFFFF_FFFF in
        if avail < 4 + len then continue := false
        else begin
          let payload = Bytes.sub_string c.input (c.lo + 4) len in
          c.lo <- c.lo + 4 + len;
          (match Protocol.decode_responses payload with
          | Ok (head :: entries) ->
              check_head tot c (expected c) head;
              List.iter (mark_entry c) entries
          | Ok [] | Error _ -> c.ok <- false);
          complete tot c (Spans.now ())
        end
      end
    else
      match newline c.input c.lo c.hi with
      | Some i ->
          let line = Bytes.sub_string c.input c.lo (i - c.lo) in
          c.lo <- i + 1;
          if c.poll_left > 0 then begin
            mark_entry c line;
            c.poll_left <- c.poll_left - 1;
            if c.poll_left = 0 then complete tot c (Spans.now ())
          end
          else begin
            check_head tot c (expected c) line;
            if c.poll_left = 0 then complete tot c (Spans.now ())
          end
      | _ -> continue := false
  done

let read_into tot c fd =
  if c.lo > 0 && c.lo = c.hi then begin
    c.lo <- 0;
    c.hi <- 0
  end;
  if Bytes.length c.input - c.hi < 65536 then begin
    let bigger = Bytes.create (max (2 * Bytes.length c.input) (c.hi - c.lo + 65536)) in
    Bytes.blit c.input c.lo bigger 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0;
    c.input <- bigger
  end;
  match Unix.read fd c.input c.hi (Bytes.length c.input - c.hi) with
  | 0 -> `Closed
  | n ->
      c.hi <- c.hi + n;
      decode tot c;
      `Read
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> `Read
  | exception Unix.Unix_error _ -> `Closed

let drop tot c =
  (match c.inflight with
  | Some m -> tot.dropped <- tot.dropped + Array.length m.expects - c.answered
  | None -> ());
  tot.bad_sessions <- tot.bad_sessions + 1;
  close_session tot c

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Start a session on an idle connection if the pass has a trace left,
   and send the session's next message. [true] while the connection has
   a message in flight. *)
let advance tot c ~port =
  if c.inflight <> None then true
  else begin
    if c.fd = None && (not c.refused_once) && (not tot.finished) && tot.handed < tot.traces
    then begin
      c.trace <- tot.handed;
      tot.handed <- tot.handed + 1;
      c.next <- 0;
      c.ok <- true;
      c.drain <- None;
      c.poll_seen <- Bytes.empty;
      match connect port with
      | fd -> c.fd <- Some fd
      | exception Unix.Unix_error _ ->
          tot.refused <- tot.refused + 1;
          c.refused_once <- true;
          session_ended tot
    end;
    match c.fd with
    | None -> false
    | Some fd ->
        let m = c.scripts.(c.trace).(c.next) in
        c.next <- c.next + 1;
        c.inflight <- Some m;
        c.answered <- 0;
        tot.requests <- tot.requests + Array.length m.expects;
        c.sent_at <- Spans.now ();
        (try write_all fd m.bytes 0 with Unix.Unix_error _ -> drop tot c);
        c.inflight <> None
  end

(* A connection silent this long with requests in flight has stalled. *)
let stall_s = 10.0

(* One untimed warm-up pass on the fresh server, then timed passes until
   [seconds] have gone by since the start. *)
let run ~port ~dir ~prefix ~seconds =
  Dt_runtime.Net.ignore_sigpipe ();
  let traces = Trace.load_set ~dir ~prefix in
  let conn binary =
    {
      binary;
      scripts = Array.map (script ~binary) traces;
      latencies = { data = Array.make 65536 0.0; len = 0 };
      fd = None;
      trace = 0;
      next = 0;
      inflight = None;
      answered = 0;
      sent_at = 0.0;
      input = Bytes.create 262144;
      lo = 0;
      hi = 0;
      poll_left = 0;
      poll_seen = Bytes.empty;
      ok = true;
      drain = None;
      refused_once = false;
    }
  in
  let conns = [ conn false; conn true ] in
  Gc.full_major ();
  let start = Spans.now () in
  let tot =
    { requests = 0; responses = 0; timed_responses = 0; errors = []; dropped = 0; refused = 0;
      sessions = 0; bad_sessions = 0; drains = []; traces = Array.length traces;
      deadline = start +. seconds; handed = 0; ended = 0; pass_start = start; warmup = 1;
      passes = []; finished = false }
  in
  let rec loop () =
    let live = List.filter (fun c -> advance tot c ~port) conns in
    if live <> [] then begin
      let fds = List.filter_map (fun c -> c.fd) live in
      match Unix.select fds [] [] stall_s with
      | [], _, _ ->
          List.iter (drop tot) live;
          loop ()
      | ready, _, _ ->
          List.iter
            (fun c ->
              match c.fd with
              | Some fd when List.mem fd ready -> (
                  match read_into tot c fd with `Closed -> drop tot c | `Read -> ())
              | _ -> ())
            live;
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
  in
  loop ();
  let take c = Array.sub c.latencies.data 0 c.latencies.len in
  {
    text = take (List.nth conns 0);
    binary = take (List.nth conns 1);
    passes = Array.of_list (List.rev tot.passes);
    timed_responses = tot.timed_responses;
    requests = tot.requests;
    responses = tot.responses;
    errors = tot.errors;
    dropped = tot.dropped;
    refused = tot.refused;
    sessions = tot.sessions;
    bad_sessions = tot.bad_sessions;
    drains = tot.drains;
  }

let main ~port ~dir ~prefix ~seconds ~out =
  let result = run ~port ~dir ~prefix ~seconds in
  let oc = open_out_bin out in
  Marshal.to_channel oc (result : result) [];
  close_out oc
