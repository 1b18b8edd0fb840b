open Dt_core

type t = {
  mutable engine : Engine.t option;
  mutable next_id : int; (* task ids are the session submission order *)
  info : unit -> string; (* host-supplied fields appended to STATS *)
}

let create ?(info = fun () -> "") () = { engine = None; next_id = 0; info }
let engine t = t.engine

type control = Continue | Close_session | Stop_server

let strip line =
  let n = String.length line in
  let stop = ref n in
  while !stop > 0 && (line.[!stop - 1] = '\n' || line.[!stop - 1] = '\r') do
    decr stop
  done;
  String.sub line 0 !stop

let stats_line t =
  let base =
    match t.engine with
    | None -> "uninitialised"
    | Some e ->
        Printf.sprintf
          "scheduled=%d pending=%d rejected=%d now=%.17g makespan=%.17g"
          (Engine.scheduled e) (Engine.pending e) (Engine.rejected e)
          (Engine.now e) (Engine.makespan e)
  in
  let extra = try t.info () with _ -> "" in
  Protocol.ok (if extra = "" then base else base ^ " " ^ extra)

let with_engine t f =
  match t.engine with
  | None -> [ Protocol.err ~code:"state" "not initialised: send INIT first" ]
  | Some e -> f e

let dispatch t (request : Protocol.request) =
  match request with
  | Quit -> ([ Protocol.ok "bye" ], Close_session)
  | Shutdown -> ([ Protocol.ok "shutting down" ], Stop_server)
  | Stats -> ([ stats_line t ], Continue)
  | Init { capacity; policy; queue_limit; binary } ->
      (match t.engine with
      | Some _ -> ([ Protocol.err ~code:"state" "already initialised" ], Continue)
      | None ->
          let e = Engine.create ~policy ?queue_limit ~capacity () in
          t.engine <- Some e;
          ( [
              Protocol.ok
                (Printf.sprintf "capacity=%.17g policy=%s queue=%d%s" capacity
                   (Engine.policy_name policy) (Engine.queue_limit e)
                   (if binary then " mode=binary" else ""));
            ],
            Continue ))
  | Submit { label; comm; comp; mem; arrival } ->
      ( with_engine t (fun e ->
            let id = t.next_id in
            let task = Task.make ~id ~label ~comm ~comp ~mem () in
            match Engine.submit e ~arrival task with
            | Engine.Accepted ->
                t.next_id <- id + 1;
                [ Protocol.ok (Printf.sprintf "accepted id=%d" id) ]
            | Engine.Rejected_queue_full limit ->
                [
                  Protocol.err ~code:"busy"
                    (Printf.sprintf "pending queue full (limit %d)" limit);
                ]
            | Engine.Rejected_too_big capacity ->
                [
                  Protocol.err ~code:"toobig"
                    (Printf.sprintf "mem %g exceeds capacity %g" mem capacity);
                ]),
        Continue )
  | Poll ->
      ( with_engine t (fun e ->
            let entries = Engine.take_new_entries e in
            Protocol.ok
              (Printf.sprintf "new=%d scheduled=%d pending=%d makespan=%.17g"
                 (List.length entries) (Engine.scheduled e) (Engine.pending e)
                 (Engine.makespan e))
            :: List.map
                 (fun (entry : Schedule.entry) ->
                   Printf.sprintf "ENTRY %d %s %.17g %.17g" entry.Schedule.task.Task.id
                     entry.Schedule.task.Task.label entry.Schedule.s_comm
                     entry.Schedule.s_comp)
                 entries),
        Continue )
  | Entries ->
      ( with_engine t (fun e ->
            let entries = Schedule.entries (Engine.schedule e) in
            Protocol.ok (Printf.sprintf "n=%d" (List.length entries))
            :: List.map
                 (fun (entry : Schedule.entry) ->
                   Printf.sprintf "ENTRY %d %s %.17g %.17g" entry.Schedule.task.Task.id
                     entry.Schedule.task.Task.label entry.Schedule.s_comm
                     entry.Schedule.s_comp)
                 entries),
        Continue )
  | Drain ->
      ( with_engine t (fun e ->
            let sched = Engine.drain e in
            [
              Protocol.ok
                (Printf.sprintf "makespan=%.17g scheduled=%d"
                   (Schedule.makespan sched) (Engine.scheduled e));
            ]),
        Continue )

(* Test-only fault injection: raising from here stands in for a bug deep
   in the engine/simulator code (see session.mli). *)
let fault_hook : (Protocol.request -> unit) ref = ref (fun _ -> ())

let handle_request t request =
  try
    !fault_hook request;
    dispatch t request
  with
  | Invalid_argument msg -> ([ Protocol.err ~code:"state" msg ], Continue)
  | e ->
      (* any other exception out of engine/sim code: answer instead of
         letting it escape through the server and kill the whole
         service *)
      ([ Protocol.err ~code:"internal" (Printexc.to_string e) ], Continue)

let handle_line t line =
  match Protocol.parse_request (strip line) with
  | Error msg -> ([ Protocol.err ~code:"parse" msg ], Continue)
  | Ok request -> handle_request t request

(* Append one request's responses to a connection's output buffer: one
   '\n'-terminated line each in text mode, one frame in binary mode. *)
let emit_into buf ~binary responses =
  if binary then Protocol.encode_response_frame_into buf responses
  else
    List.iter
      (fun line ->
        Iobuf.add_string buf line;
        Iobuf.add_char buf '\n')
      responses
