type t = {
  listen_fd : Unix.file_descr;
  port : int;
  stop : bool Atomic.t;
}

let create ?(host = "127.0.0.1") ~port () =
  let addr = Net.resolve ~host ~port in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  (try
     Unix.bind fd addr;
     (* a C10K-scale accept burst overflows a small backlog into SYN
        retransmits (whole seconds per connection); the kernel clamps
        this to somaxconn *)
     Unix.listen fd 1024;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  { listen_fd = fd; port; stop = Atomic.make false }

let port t = t.port

(* The server itself holds a handful of fds (listener, poller, stdio,
   scratch for accepts in flight) besides the connections; a
   select-backed run must keep every fd *number* under FD_SETSIZE, so
   its connection ceiling leaves headroom for those. *)
let select_conn_limit = Poller.select_fd_limit - 16

(* ------------------------- connection state ------------------------- *)

type mode = Text | Binary

(* What the reader parsed off the wire, paired with the mode its
   response must be encoded in. A connection that negotiates binary
   switches mid-buffer: the flipping INIT's own item already carries
   [Binary], everything parsed before it [Text]. *)
type item =
  | Line of string (* text-mode request line, terminator stripped *)
  | Req of (Protocol.request, string) result
      (* decoded binary request; [Error] is a recoverable value error
         answered [ERR parse] without losing the stream *)
  | Fatal of string (* structural framing error: answer, then close *)

type conn = {
  fd : Unix.file_descr;
  session : Session.t;
  rbuf : Iobuf.t;         (* received bytes not yet forming a full
                             line/frame; the socket reads land directly
                             in its chunks (Iobuf.fill_from) *)
  mutable rneed : int;    (* binary mode: bytes rbuf must reach before
                             reparsing is worthwhile (frame reassembly
                             without re-peeking the header per read) *)
  mutable rscan : int;    (* text mode: prefix of rbuf already scanned
                             for '\n' — an incomplete line is never
                             re-scanned from offset 0 *)
  mutable mode : mode;    (* framing of the *incoming* byte stream *)
  inbox : (mode * item) Queue.t; (* parsed requests awaiting dispatch *)
  outq : Iobuf.t;         (* pending response chunks; writev drains the
                             whole list per syscall, advancing by the
                             written count resumes mid-chunk *)
  mutable last_activity : float;
  mutable closing : bool; (* read no more; close once the output drains *)
  mutable dead : bool;    (* dropped: fd closed, possibly reused by a new
                             connection — never touch the poller again *)
}

(* One request line is bounded; a peer that streams a longer "line" is
   answered ERR parse and disconnected instead of growing rbuf forever.
   (Binary mode is bounded by Protocol.max_frame_bytes instead.) *)
let max_line_bytes = 65536

(* Backpressure: a peer that stops reading sees its pending output
   grow; past half the bound the server stops reading from it (write
   interest alone keeps the connection registered), past the full bound
   the connection is dropped — the output is undeliverable in any
   useful time frame. *)
let default_max_output_bytes = 4 * 1024 * 1024

let make_conn ~info fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  {
    fd;
    session = Session.create ~info ();
    rbuf = Iobuf.create ();
    rneed = 0;
    rscan = 0;
    mode = Text;
    inbox = Queue.create ();
    outq = Iobuf.create ~chunk_size:4096 ();
    last_activity = Unix.gettimeofday ();
    closing = false;
    dead = false;
  }

let output_pending c = Iobuf.length c.outq
let has_output c = output_pending c > 0
let add_output c s = Iobuf.add_string c.outq s

(* One writev covers at most this many chunks; anything beyond resumes
   on the next go-around (matches the C stub's DT_IOV_MAX). *)
let max_flush_iovs = 64

(* Write as much pending output as the socket accepts right now — the
   whole chunk list per syscall via scatter-gather, never a flattening
   copy; a short write advances the read cursor mid-chunk/mid-iovec and
   the next call resumes there. [false] means the peer is gone
   (EPIPE/ECONNRESET/...) and the connection must be dropped. *)
let flush_output c =
  let rec go () =
    if Iobuf.is_empty c.outq then true
    else
      match Net.writev c.fd (Iobuf.iovecs ~max:max_flush_iovs c.outq) with
      | 0 -> true
      | n ->
          Iobuf.advance c.outq n;
          go ()
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
        ->
          true
      | exception Unix.Unix_error _ -> false
  in
  go ()

(* ------------------------- input parsing --------------------------- *)

(* Split rbuf's binary frames into inbox items, leaving the partial
   tail buffered in place. Sets [rneed] so the caller skips reparsing
   until the partial frame can be complete — and since the frame is
   only extracted (one copy) once complete, reassembly over many reads
   is O(frame) total, not O(frame^2) like re-flattening the buffer on
   every readiness event would be. *)
let parse_binary c =
  let continue = ref true in
  while !continue do
    if Iobuf.length c.rbuf < c.rneed then continue := false
    else
      match Protocol.frame_of_buf c.rbuf with
      | Protocol.Need_more ->
          c.rneed <-
            (if Iobuf.length c.rbuf >= 4 then 4 + Iobuf.peek_u32_be c.rbuf
             else 4);
          continue := false
      | Protocol.Frame_error msg ->
          Queue.push (Binary, Fatal msg) c.inbox;
          Iobuf.clear c.rbuf;
          c.rneed <- 4;
          continue := false
      | Protocol.Frame (payload, _) -> (
          c.rneed <- 4;
          match Protocol.decode_requests payload with
          | Error msg ->
              Queue.push (Binary, Fatal msg) c.inbox;
              Iobuf.clear c.rbuf;
              continue := false
          | Ok requests ->
              List.iter (fun r -> Queue.push (Binary, Req r) c.inbox) requests)
  done

(* Split rbuf into inbox items: complete text lines up to (and
   including) a binary-negotiating INIT, then binary frames. Partial
   tails stay buffered where they are (slow-loris clients deliver a
   request over many reads; [rscan] remembers how far the newline scan
   got so the incomplete line is never re-scanned). Returns [false]
   when the connection must close because the text-mode line bound was
   exceeded. *)
let parse_input c =
  (match c.mode with
  | Binary -> ()
  | Text ->
      let continue = ref true in
      while !continue do
        match Iobuf.index_char c.rbuf ~from:c.rscan '\n' with
        | None ->
            c.rscan <- Iobuf.length c.rbuf;
            continue := false
        | Some i ->
            let line = Iobuf.read_string c.rbuf i in
            Iobuf.advance c.rbuf 1 (* the '\n' itself *);
            c.rscan <- 0;
            if Protocol.switches_to_binary line then begin
              (* the switch takes effect immediately: the INIT's own
                 response, and every byte after its newline, is binary *)
              c.mode <- Binary;
              Queue.push (Binary, Line line) c.inbox;
              continue := false
            end
            else Queue.push (Text, Line line) c.inbox
      done);
  match c.mode with
  | Binary ->
      if Iobuf.length c.rbuf >= c.rneed then parse_binary c;
      true
  | Text -> Iobuf.length c.rbuf <= max_line_bytes

(* Run one connection's batch of parsed items through its session,
   encoding each item's responses in its own mode — the text protocol
   appends one '\n'-terminated line each, binary wraps each request's
   responses in exactly one frame. Items after a QUIT or SHUTDOWN are
   never answered. Session handlers never raise by contract; the
   handler here is the last line of defense so that an escaped
   exception tears down one connection, never the event loop. *)
let process_items_into session buf items =
  let rec go control = function
    | [] -> control
    | _ :: _ when control <> Session.Continue -> control
    | (mode, item) :: rest ->
        let binary = match mode with Binary -> true | Text -> false in
        let responses, next =
          match item with
          | Line line -> Session.handle_line session line
          | Req (Ok request) -> Session.handle_request session request
          | Req (Error msg) -> ([ Protocol.err ~code:"parse" msg ], Session.Continue)
          | Fatal msg -> ([ Protocol.err ~code:"parse" msg ], Session.Close_session)
        in
        Session.emit_into buf ~binary responses;
        go next rest
  in
  match go Session.Continue items with
  | control -> control
  | exception e ->
      (* session handlers never raise by contract, so this is
         vanishingly rare; appending after any partial output already
         in [buf] keeps the failure visible without replaying it *)
      Iobuf.add_string buf (Protocol.err ~code:"internal" (Printexc.to_string e));
      Iobuf.add_char buf '\n';
      Session.Close_session

let install_signal_handlers stop =
  let previous = ref [] in
  List.iter
    (fun signal ->
      match
        Sys.signal signal (Sys.Signal_handle (fun _ -> Atomic.set stop true))
      with
      | old -> previous := (signal, old) :: !previous
      | exception (Invalid_argument _ | Sys_error _) -> ())
    [ Sys.sigint; Sys.sigterm ];
  fun () ->
    List.iter
      (fun (s, old) ->
        try Sys.set_signal s old with Invalid_argument _ | Sys_error _ -> ())
      !previous

let busy_line =
  Protocol.err ~code:"busy" "connection limit reached, try again later" ^ "\n"

let drain_deadline_s = 2.0

(* Caps the poll timeout: bounds the classic race of a termination
   signal landing between the stop-flag check and the wait (the handler
   only sets a flag; an undelayed wait would sleep through it). *)
let max_wait_s = 0.5

let run ?(backend = `Auto) ?(max_conns = 512) ?max_output_bytes
    ?(idle_timeout = 0.0) ?on_listen t =
  let max_output_bytes =
    match max_output_bytes with None -> default_max_output_bytes | Some b -> b
  in
  if max_conns < 1 then invalid_arg "Server.run: max_conns must be positive";
  if max_output_bytes < 1 then
    invalid_arg "Server.run: max_output_bytes must be positive";
  if Float.is_nan idle_timeout || idle_timeout < 0.0 then
    invalid_arg "Server.run: idle_timeout must be non-negative";
  let poller = Poller.create ~kind:backend () in
  if Poller.backend poller = Poller.Select && max_conns > select_conn_limit then begin
    Poller.close poller;
    invalid_arg
      (Printf.sprintf
         "Server.run: max_conns %d exceeds the select backend's limit of %d \
          (FD_SETSIZE %d); use the epoll backend"
         max_conns select_conn_limit Poller.select_fd_limit)
  end;
  let read_pause_bytes = max 1 (max_output_bytes / 2) in
  Net.ignore_sigpipe ();
  let restore = install_signal_handlers t.stop in
  (match on_listen with None -> () | Some f -> f t.port);
  (* fd-keyed table (fds are immediate ints) so an epoll wakeup touches
     only the connections with events, never the whole population *)
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 256 in
  let num_conns = ref 0 in
  let all_conns () = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> () in
  (* Out of fds (EMFILE/ENFILE), a pending connection stays in the
     backlog and keeps the listener readable: the level-triggered
     poller would report it again at once, forever. So the listener's
     read interest is dropped until a connection closes and frees an
     fd. *)
  let accept_paused = ref false in
  let drop c =
    if not c.dead then begin
      c.dead <- true;
      Hashtbl.remove conns c.fd;
      decr num_conns;
      Poller.remove poller c.fd;
      close_fd c.fd;
      if !accept_paused then begin
        accept_paused := false;
        Poller.modify poller t.listen_fd ~read:true ~write:false
      end
    end
  in
  (* Interest follows connection state: read while the peer may send
     more (not closing, not backpressured), write only while output is
     pending. The poller no-ops unchanged interest, so calling this
     after every state change is cheap. *)
  let update_interest c =
    if not c.dead then
      let pending = output_pending c in
      Poller.modify poller c.fd
        ~read:((not c.closing) && pending < read_pause_bytes)
        ~write:(pending > 0)
  in
  (* Allocation budget instrumentation: minor-heap words allocated
     while running request batches, per request. STATS reports the
     running average as [minor_words_per_req]. *)
  let alloc_words = ref 0.0 and alloc_reqs = ref 0 in
  let conn_info () =
    let backend = "backend=" ^ Poller.backend_name poller in
    if !alloc_reqs = 0 then backend
    else
      Printf.sprintf "%s minor_words_per_req=%.0f" backend
        (!alloc_words /. Float.of_int !alloc_reqs)
  in
  (* Run everything queued on a connection as one batch — a frame of
     pipelined SUBMITs becomes a single engine pass — with the
     responses encoded straight into its output queue. *)
  let dispatch c =
    if (not c.closing) && not (Queue.is_empty c.inbox) then begin
      let items = List.of_seq (Queue.to_seq c.inbox) in
      Queue.clear c.inbox;
      let w0 = Gc.minor_words () in
      let control = process_items_into c.session c.outq items in
      alloc_words := !alloc_words +. (Gc.minor_words () -. w0);
      alloc_reqs := !alloc_reqs + List.length items;
      match control with
      | Session.Continue -> ()
      | Session.Close_session -> c.closing <- true
      | Session.Stop_server ->
          c.closing <- true;
          Atomic.set t.stop true
    end
  in
  (* Flush what the socket accepts, enforce the output bound, reap
     drained closing connections, and re-register interest — the single
     exit point for every connection touched in a loop round. *)
  let finalize c =
    if not c.dead then
      if not (flush_output c) then drop c
      else if output_pending c > max_output_bytes then
        (* the peer is not reading: the output is undeliverable *)
        drop c
      else if c.closing && not (has_output c) then drop c
      else update_interest c
  in
  (* EOF, a read/write error, or data arriving: returns [true] when the
     connection is still alive afterwards. The socket reads land
     directly in rbuf's tail chunk (no intermediate scratch copy);
     [read_budget] bounds one connection's share of a wakeup so a
     firehose peer cannot starve the rest — the level-triggered poller
     reports it again immediately. *)
  let read_budget = 65536 in
  let handle_read c =
    let rec read_loop total =
      if total >= read_budget then `Data
      else
        match Iobuf.fill_from c.rbuf c.fd with
        | 0 -> `Eof (* peer closed: pending output is undeliverable *)
        | n -> read_loop (total + n)
        | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
          ->
            if total > 0 then `Data else `Nothing
        | exception Unix.Unix_error _ -> `Eof
    in
    match read_loop 0 with
    | `Eof -> false
    | `Nothing -> true
    | `Data ->
        c.last_activity <- Unix.gettimeofday ();
        if parse_input c then begin
          dispatch c;
          true
        end
        else begin
          add_output c
            (Protocol.err ~code:"parse"
               (Printf.sprintf "request line exceeds %d bytes" max_line_bytes)
            ^ "\n");
          c.closing <- true;
          true
        end
  in
  let accept_all touched =
    let rec go () =
      match Unix.accept t.listen_fd with
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          accept_paused := true;
          Poller.modify poller t.listen_fd ~read:false ~write:false
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
          if !num_conns >= max_conns then begin
            (* over the limit: one short best-effort answer, then close *)
            (try ignore (Unix.write_substring fd busy_line 0 (String.length busy_line))
             with Unix.Unix_error _ -> ());
            close_fd fd
          end
          else begin
            let c = make_conn ~info:conn_info fd in
            Hashtbl.replace conns fd c;
            incr num_conns;
            Poller.add poller fd ~read:true ~write:false;
            touched := c :: !touched
          end;
          go ()
    in
    go ()
  in
  (* Poll timeout derived from the nearest idle deadline — an idle
     population costs no wakeups beyond the [max_wait_s] heartbeat, and
     an imminent timeout is honoured promptly instead of at the next
     fixed tick. *)
  let compute_timeout () =
    if idle_timeout <= 0.0 then max_wait_s
    else begin
      let nearest =
        Hashtbl.fold
          (fun _ c acc ->
            if c.closing then acc
            else Float.min acc (c.last_activity +. idle_timeout))
          conns infinity
      in
      if nearest = infinity then max_wait_s
      else
        Float.max 0.0 (Float.min max_wait_s (nearest -. Unix.gettimeofday ()))
    end
  in
  Poller.add poller t.listen_fd ~read:true ~write:false;
  Fun.protect
    ~finally:(fun () ->
      restore ();
      Poller.close poller;
      close_fd t.listen_fd;
      List.iter (fun c -> close_fd c.fd) (all_conns ());
      Hashtbl.reset conns)
    (fun () ->
      while not (Atomic.get t.stop) do
        let events = Poller.wait poller ~timeout:(compute_timeout ()) in
        let touched = ref [] in
        let accept_ready = ref false in
        (* 1. read from every ready connection (EOF drops it, pending
           output and all: the peer is gone), parse complete requests
           and run each connection's batch — one batch per connection
           per wakeup, in order within a connection *)
        List.iter
          (fun (fd, readable, writable) ->
            if fd = t.listen_fd then (if readable then accept_ready := true)
            else
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some c ->
                  if readable && (not c.closing) && not (handle_read c) then
                    drop c
                  else if readable || writable then touched := c :: !touched)
          events;
        (* 2. accept after reads, so slots freed by disconnections in
           this very round are visible to the max_conns check *)
        if !accept_ready then accept_all touched;
        (* 3. idle-connection timeout *)
        if idle_timeout > 0.0 then begin
          let now = Unix.gettimeofday () in
          Hashtbl.iter
            (fun _ c ->
              if (not c.closing) && now -. c.last_activity >= idle_timeout
              then begin
                add_output c
                  (Protocol.err ~code:"timeout"
                     (Printf.sprintf "idle for more than %gs, closing"
                        idle_timeout)
                  ^ "\n");
                c.closing <- true;
                touched := c :: !touched
              end)
            conns
        end;
        (* 4. flush, enforce the output bound, reap, re-register
           interest — only for the connections this round touched *)
        List.iter finalize !touched
      done;
      (* graceful drain: stop accepting, deliver every queued response
         (the SHUTDOWN acknowledgement in particular) within a bounded
         window, then close all remaining connections — so one stuck
         reader cannot hold the shutdown hostage *)
      accept_paused := false (* [drop] must not re-arm the listener *);
      Poller.remove poller t.listen_fd;
      close_fd t.listen_fd;
      List.iter
        (fun c ->
          c.closing <- true;
          update_interest c)
        (all_conns ());
      let deadline = Unix.gettimeofday () +. drain_deadline_s in
      let rec drain () =
        List.iter
          (fun c ->
            if (not (flush_output c)) || not (has_output c) then drop c
            else update_interest c)
          (all_conns ());
        if !num_conns > 0 && Unix.gettimeofday () < deadline then begin
          ignore (Poller.wait poller ~timeout:0.05);
          drain ()
        end
      in
      drain ())

let serve_stdio () =
  Net.ignore_sigpipe ();
  let session = Session.create () in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line -> (
        let responses, control = Session.handle_line session line in
        match
          List.iter print_endline responses;
          flush stdout
        with
        | exception Sys_error _ -> () (* stdout pipe closed by the peer *)
        | () -> ( match control with Session.Continue -> loop () | _ -> ()))
  in
  loop ()
