(* The service's layers, measured in-process on the very request streams
   the load generator sends: Protocol decoding, Session.handle_request,
   Session.emit_into, and a bare Engine fed the same tasks. The TCP
   latency minus the in-process time is what the wire adds. *)

open Dt_core
open Dt_runtime
module Trace = Dt_trace.Trace

(* A span around a call, or nothing. *)
type wrap = { w : 'a. string -> (unit -> 'a) -> 'a }

let plain = { w = (fun _ f -> f ()) }
let traced spans ~key = { w = (fun name f -> Spans.record spans ~key name f) }

type counts = {
  mutable framed : int;  (** requests decoded from binary frames *)
  inproc : float Queue.t;  (** per request: decode + handle + encode, in seconds *)
}

(* One session as the server sees it: decode each message (the INIT
   always as text), handle each request, encode each response. *)
let replay ~w ~counts ~binary (script : Loadgen.message array) =
  let session = Session.create () in
  let input = Iobuf.create () and out = Iobuf.create () in
  Array.iteri
    (fun k (m : Loadgen.message) ->
      let t0 = Spans.now () in
      let requests =
        if k = 0 || not binary then
          let line = String.sub m.bytes 0 (String.length m.bytes - 1) in
          [ w.w "protocol.text_decode" (fun () -> Protocol.parse_request line) ]
        else begin
          Iobuf.add_string input m.bytes;
          let decoded =
            w.w "protocol.binary_decode" (fun () ->
                match Protocol.frame_of_buf input with
                | Protocol.Frame (payload, _) -> Protocol.decode_requests payload
                | Need_more -> Error "incomplete frame"
                | Frame_error e -> Error e)
          in
          match decoded with
          | Ok l ->
              counts.framed <- counts.framed + List.length l;
              l
          | Error e -> failwith ("binary decode: " ^ e)
        end
      in
      List.iteri
        (fun j request ->
          let request = match request with Ok q -> q | Error e -> failwith ("decode: " ^ e) in
          let expect = m.expects.(j) in
          let responses, _ =
            w.w
              (match expect with Loadgen.Submit _ -> "session.submit" | _ -> "session.other")
              (fun () -> Session.handle_request session request)
          in
          w.w
            (match expect with Loadgen.Poll _ -> "protocol.poll_encode" | _ -> "protocol.encode")
            (fun () -> Session.emit_into out ~binary responses))
        requests;
      let per_request = (Spans.now () -. t0) /. float_of_int (List.length requests) in
      List.iter (fun _ -> Queue.add per_request counts.inproc) requests;
      Iobuf.clear out)
    script

(* A bare engine fed the tasks as the session builds them. *)
let engine_replay ~w (trace : Trace.t) =
  let e =
    Engine.create ~policy:(Engine.Corrected Corrected_rules.OOSCMR)
      ~capacity:(Trace.min_capacity trace *. Work.capacity_factor)
      ()
  in
  List.iteri
    (fun id (t : Task.t) ->
      let task = Task.make ~id ~label:t.label ~comm:t.comm ~comp:t.comp ~mem:t.mem () in
      ignore (w.w "engine.submit" (fun () -> Engine.submit e ~arrival:0.0 task)))
    trace.Trace.tasks;
  ignore (w.w "engine.drain" (fun () -> Engine.drain e))

(* One session per trace of [traces] in each framing, untraced and then
   traced. Returns the traced replay's time over the untraced one. *)
let measure r ~spans ~(traces : Trace.t array) ~tcp_median =
  let subset = Array.to_list traces in
  let sessions =
    List.map
      (fun t -> (t.Trace.name, Loadgen.script ~binary:false t, Loadgen.script ~binary:true t))
      subset
  in
  let run_all wrap counts =
    List.iter
      (fun (key, text, binary) ->
        replay ~w:(wrap key) ~counts ~binary:false text;
        replay ~w:(wrap key) ~counts ~binary:true binary)
      sessions
  in
  let untraced = { framed = 0; inproc = Queue.create () } in
  let w0 = Gc.minor_words () in
  let (), plain_s = Work.time (fun () -> run_all (fun _ -> plain) untraced) in
  let words = Gc.minor_words () -. w0 in
  let counts = { framed = 0; inproc = Queue.create () } in
  let (), traced_s = Work.time (fun () -> run_all (fun key -> traced spans ~key) counts) in
  List.iter (fun t -> engine_replay ~w:(traced spans ~key:t.Trace.name) t) subset;
  let requests = Queue.length untraced.inproc in
  let totals = Spans.totals (Spans.spans spans) in
  let get name = try List.assoc name totals with Not_found -> { Spans.count = 0; total = 0.0; self = 0.0 } in
  let mean ~scale name =
    let t = get name in
    t.Spans.total *. scale /. float_of_int (max 1 t.Spans.count)
  in
  Report.metric r "protocol.text_decode_us" "us" (mean ~scale:1e6 "protocol.text_decode")
    ~detail:"(Protocol.parse_request, per request)";
  Report.metric r "protocol.binary_decode_us" "us"
    ((get "protocol.binary_decode").Spans.total *. 1e6 /. float_of_int (max 1 counts.framed))
    ~detail:"(frame_of_buf + decode_requests, per request)";
  Report.metric r "session.submit_us" "us" (mean ~scale:1e6 "session.submit")
    ~detail:"(Session.handle_request on SUBMIT)";
  Report.metric r "engine.submit_us" "us" (mean ~scale:1e6 "engine.submit")
    ~detail:"(Engine.submit on a bare engine)";
  Report.metric r "engine.drain_ms" "ms" (mean ~scale:1e3 "engine.drain")
    ~detail:"(Engine.drain, per session)";
  Report.metric r "protocol.encode_us" "us" (mean ~scale:1e6 "protocol.encode")
    ~detail:"(Session.emit_into, per non-POLL response, both framings)";
  Report.metric r "protocol.poll_encode_ms" "ms" (mean ~scale:1e3 "protocol.poll_encode")
    ~detail:"(Session.emit_into of a whole POLL response)";
  let inproc_median =
    Dt_stats.Descriptive.median (Array.of_seq (Queue.to_seq untraced.inproc))
  in
  Report.metric r "server.wire_us" "us" ((tcp_median -. inproc_median) *. 1e6)
    ~detail:
      (Printf.sprintf "(median TCP %.2f us - median in-process %.2f us)" (tcp_median *. 1e6)
         (inproc_median *. 1e6));
  Report.metric r "session.minor_words_per_req" "words" (words /. float_of_int requests)
    ~detail:(Printf.sprintf "(Gc.minor_words over an in-process replay of %d requests)" requests);
  traced_s /. plain_s
