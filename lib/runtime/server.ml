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

(* The server itself holds a handful of fds (listener, wake pipe,
   stdio, scratch for accepts in flight) besides the connections; a
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
  shard : int;            (* fixed at accept: the pool shard that runs
                             every batch of this connection's requests *)
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
  mutable busy : bool;    (* a batch is in flight on the shard *)
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

(* A shard stuck on a long batch must not let a pipelining client grow
   the inbox without bound: past this many parsed-but-undispatched
   requests the server stops reading until the batch returns. *)
let inbox_pause_items = 4096

let make_conn ?info ~shard fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  {
    fd;
    session = Session.create ?info ();
    shard;
    rbuf = Iobuf.create ();
    rneed = 0;
    rscan = 0;
    mode = Text;
    inbox = Queue.create ();
    busy = false;
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
   responses in exactly one frame. With a pool this executes as a
   pinned task on the connection's shard: one batch at a time per
   connection (the [busy] flag), batches in arrival order, so the
   session needs no lock even though it runs on a worker domain.
   Session handlers never raise by contract; the handler here is the
   last line of defense so that an escaped exception tears down one
   connection, never the event loop. *)
let process_items_into session buf items =
  let rec go control = function
    | [] -> control
    | _ :: _ when control <> Session.Continue -> control
    | (mode, item) :: rest ->
        let binary = match mode with Binary -> true | Text -> false in
        let next =
          match item with
          | Line line -> Session.handle_line_into session buf ~binary line
          | Req (Ok request) ->
              Session.handle_request_into session buf ~binary request
          | Req (Error msg) ->
              Session.emit_into buf ~binary [ Protocol.err ~code:"parse" msg ];
              Session.Continue
          | Fatal msg ->
              Session.emit_into buf ~binary [ Protocol.err ~code:"parse" msg ];
              Session.Close_session
        in
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

let run ?pool ?(backend = `Auto) ?(max_conns = 512) ?max_output_bytes
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
  let drop c =
    if not c.dead then begin
      c.dead <- true;
      Hashtbl.remove conns c.fd;
      decr num_conns;
      Poller.remove poller c.fd;
      close_fd c.fd
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
        ~read:
          ((not c.closing)
          && pending < read_pause_bytes
          && Queue.length c.inbox < inbox_pause_items)
        ~write:(pending > 0)
  in
  (* -------- shard dispatch machinery (engaged when [pool] is set) ----
     Each connection's batches run as pinned tasks on its shard; the
     event loop never blocks on them. Finished batches come back through
     [completions] (guarded by [comp_mutex]); the self-pipe wakes the
     poller so a response is flushed as soon as its batch ends, not at
     the next timeout tick. *)
  let num_shards =
    match pool with Some p -> Dt_par.Pool.num_domains p | None -> 1
  in
  let next_shard = ref 0 in
  let comp_mutex = Mutex.create () in
  let completions = ref ([] : (conn * (Iobuf.t * Session.control)) list) in
  let in_flight = Atomic.make 0 in
  (* Allocation budget instrumentation: minor-heap words allocated
     while running request batches, per request, across every domain
     that ran one (Gc.minor_words is per-domain in OCaml 5, so the
     delta is sampled on whichever domain executed the batch and folded
     into these process-wide counters). STATS reports the running
     average as [minor_words_per_req]. *)
  let alloc_words = Atomic.make 0.0 in
  let alloc_reqs = Atomic.make 0 in
  let record_alloc dw n =
    let rec add () =
      let cur = Atomic.get alloc_words in
      if not (Atomic.compare_and_set alloc_words cur (cur +. dw)) then add ()
    in
    if dw > 0.0 then add ();
    ignore (Atomic.fetch_and_add alloc_reqs n)
  in
  let run_batch session buf items =
    let w0 = Gc.minor_words () in
    let control = process_items_into session buf items in
    record_alloc (Gc.minor_words () -. w0) (List.length items);
    control
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let wake () =
    (* a full pipe already guarantees a pending wakeup; a closed one
       means the loop is past caring *)
    try ignore (Unix.write_substring wake_w "!" 0 1)
    with Unix.Unix_error _ -> ()
  in
  let drain_wake () =
    let buf = Bytes.create 64 in
    let rec go () =
      match Unix.read wake_r buf 0 (Bytes.length buf) with
      | 0 -> ()
      | _ -> go ()
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  let conn_info shard () =
    let backend = "backend=" ^ Poller.backend_name poller in
    let alloc =
      let reqs = Atomic.get alloc_reqs in
      if reqs = 0 then ""
      else
        Printf.sprintf " minor_words_per_req=%.0f"
          (Atomic.get alloc_words /. Float.of_int reqs)
    in
    match pool with
    | None -> backend ^ alloc
    | Some p ->
        let s = Dt_par.Pool.stats p in
        Printf.sprintf "shard=%d %s pool_jobs=%d pool_fallbacks=%d%s" shard
          backend s.Dt_par.Pool.jobs s.Dt_par.Pool.fallbacks alloc
  in
  (* Hand a connection's queued items to its shard, unless a batch is
     already in flight there (per-connection order) or inline when the
     server runs without a pool. One dispatch covers everything queued —
     a frame of pipelined SUBMITs becomes a single engine pass. *)
  let rec dispatch c =
    if (not c.busy) && (not c.closing) && not (Queue.is_empty c.inbox) then begin
      let items = List.of_seq (Queue.to_seq c.inbox) in
      Queue.clear c.inbox;
      match pool with
      | None ->
          (* no pool: the loop owns the connection outright, so the
             responses are encoded straight into its output queue *)
          apply_control c (run_batch c.session c.outq items)
      | Some p ->
          c.busy <- true;
          Atomic.incr in_flight;
          Dt_par.Pool.submit p ~shard:c.shard (fun () ->
              (* the batch buffer is private to this worker until the
                 completion hand-off; the event loop then splices its
                 chunks onto the connection's outq (Iobuf.transfer) —
                 no copy, and never two domains in one buffer *)
              let buf = Iobuf.create ~chunk_size:1024 () in
              let control = run_batch c.session buf items in
              Mutex.lock comp_mutex;
              completions := (c, (buf, control)) :: !completions;
              Mutex.unlock comp_mutex;
              wake ();
              (* last action: after this decrement the task provably
                 holds no reference to the wake pipe *)
              Atomic.decr in_flight)
    end
  and apply c (buf, control) =
    Iobuf.transfer ~src:buf c.outq;
    apply_control c control
  and apply_control c control =
    match control with
    | Session.Continue -> ()
    | Session.Close_session -> c.closing <- true
    | Session.Stop_server ->
        c.closing <- true;
        Atomic.set t.stop true
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
      else if c.closing && (not c.busy) && not (has_output c) then drop c
      else update_interest c
  in
  let apply_completions touched =
    let ready =
      Mutex.lock comp_mutex;
      let l = !completions in
      completions := [];
      Mutex.unlock comp_mutex;
      List.rev l
    in
    List.iter
      (fun (c, result) ->
        c.busy <- false;
        if not c.dead then begin
          apply c result;
          (* items may have queued up while the batch was in flight *)
          dispatch c;
          touched := c :: !touched
        end)
      ready
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
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
          if !num_conns >= max_conns then begin
            (* over the limit: one short best-effort answer, then close *)
            (try ignore (Unix.write_substring fd busy_line 0 (String.length busy_line))
             with Unix.Unix_error _ -> ());
            close_fd fd
          end
          else begin
            (* round-robin connection-to-shard affinity: fixed for the
               connection's whole lifetime *)
            let shard = !next_shard in
            next_shard := (shard + 1) mod num_shards;
            let c = make_conn ~info:(conn_info shard) ~shard fd in
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
            if c.closing || c.busy then acc
            else Float.min acc (c.last_activity +. idle_timeout))
          conns infinity
      in
      if nearest = infinity then max_wait_s
      else
        Float.max 0.0 (Float.min max_wait_s (nearest -. Unix.gettimeofday ()))
    end
  in
  Poller.add poller t.listen_fd ~read:true ~write:false;
  Poller.add poller wake_r ~read:true ~write:false;
  Fun.protect
    ~finally:(fun () ->
      restore ();
      Poller.close poller;
      close_fd t.listen_fd;
      List.iter (fun c -> close_fd c.fd) (all_conns ());
      Hashtbl.reset conns;
      (* Only reclaim the self-pipe once no task can touch it again: a
         batch stuck past the drain deadline still holds [wake_w], and
         closing would let the fd number be reused under it. Leaking two
         fds in that pathological case is the safe trade. *)
      if Atomic.get in_flight = 0 then begin
        close_fd wake_r;
        close_fd wake_w
      end)
    (fun () ->
      while not (Atomic.get t.stop) do
        let events = Poller.wait poller ~timeout:(compute_timeout ()) in
        let touched = ref [] in
        let accept_ready = ref false in
        (* 1. collect batches finished on the shards since last round
           (the wake pipe made the poller return immediately for them) *)
        List.iter
          (fun (fd, readable, _) ->
            if readable && fd = wake_r then drain_wake ())
          events;
        apply_completions touched;
        (* 2. read from every ready connection (EOF drops it, pending
           output and all: the peer is gone), parse complete requests
           and dispatch each connection's batch to its shard — one
           pinned batch per connection per wakeup (inline without a
           pool): always in order within a connection, and a slow batch
           only ever delays its own shard, never the loop *)
        List.iter
          (fun (fd, readable, writable) ->
            if fd = t.listen_fd then (if readable then accept_ready := true)
            else if fd <> wake_r then
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some c ->
                  if readable && (not c.closing) && not (handle_read c) then
                    drop c
                  else if readable || writable then touched := c :: !touched)
          events;
        (* 3. accept after reads, so slots freed by disconnections in
           this very round are visible to the max_conns check *)
        if !accept_ready then accept_all touched;
        (* 4. idle-connection timeout (a connection with a batch in
           flight is working, not idle) *)
        if idle_timeout > 0.0 then begin
          let now = Unix.gettimeofday () in
          Hashtbl.iter
            (fun _ c ->
              if
                (not c.closing) && (not c.busy)
                && now -. c.last_activity >= idle_timeout
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
        (* 5. flush, enforce the output bound, reap, re-register
           interest — only for the connections this round touched *)
        List.iter finalize !touched
      done;
      (* graceful drain: stop accepting, wait (bounded) for in-flight
         batches, deliver every queued response (the SHUTDOWN
         acknowledgement in particular), then close all remaining
         connections — so one stuck reader or one slow batch cannot hold
         the shutdown hostage *)
      Poller.remove poller t.listen_fd;
      close_fd t.listen_fd;
      List.iter
        (fun c ->
          c.closing <- true;
          update_interest c)
        (all_conns ());
      let deadline = Unix.gettimeofday () +. drain_deadline_s in
      let rec drain () =
        drain_wake ();
        apply_completions (ref []);
        List.iter
          (fun c ->
            if not (flush_output c) then drop c
            else if (not c.busy) && not (has_output c) then drop c
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
