open Dt_core

type policy =
  | Dynamic of Dynamic_rules.criterion
  | Corrected of Corrected_rules.rule

let all_policies =
  List.map (fun c -> Dynamic c) Dynamic_rules.all
  @ List.map (fun r -> Corrected r) Corrected_rules.all

let policy_name = function
  | Dynamic c -> Dynamic_rules.name c
  | Corrected r -> Corrected_rules.name r

let policy_of_name s =
  let s = String.uppercase_ascii s in
  List.find_opt (fun p -> policy_name p = s) all_policies

type admission =
  | Accepted
  | Rejected_queue_full of int
  | Rejected_too_big of float

let admission_to_string = function
  | Accepted -> "accepted"
  | Rejected_queue_full n -> Printf.sprintf "queue full (limit %d)" n
  | Rejected_too_big c -> Printf.sprintf "task exceeds capacity %g" c

type t = {
  capacity : float;
  policy : policy;
  queue_limit : int;
  st : Sim.state;
  loop : Greedy.t;
  mutable n_pending : int;
  mutable n_scheduled : int;
  mutable n_rejected : int;
  mutable entries : Schedule.entry list; (* scheduled so far, reversed *)
  mutable fresh : Schedule.entry list; (* since the last take, reversed *)
}

let create ?(policy = Corrected Corrected_rules.OOSCMR) ?(queue_limit = 65536)
    ~capacity () =
  if not (capacity > 0.0) then invalid_arg "Engine.create: capacity must be positive";
  (* [float_of_string "inf"] passes the positivity check above but makes
     every task fit; reject it explicitly *)
  if not (Float.is_finite capacity) then
    invalid_arg "Engine.create: capacity must be finite";
  if queue_limit <= 0 then invalid_arg "Engine.create: queue_limit must be positive";
  let st = Sim.initial_state () in
  let loop =
    match policy with
    | Dynamic c -> Greedy.create ~state:st ~capacity c
    | Corrected r ->
        Greedy.create ~state:st ~static:Candidates.Johnson ~capacity
          (Corrected_rules.criterion r)
  in
  {
    capacity;
    policy;
    queue_limit;
    st;
    loop;
    n_pending = 0;
    n_scheduled = 0;
    n_rejected = 0;
    entries = [];
    fresh = [];
  }

let capacity t = t.capacity
let policy t = t.policy
let queue_limit t = t.queue_limit
let pending t = t.n_pending
let scheduled t = t.n_scheduled
let rejected t = t.n_rejected
let now t = Sim.link_free_time t.st
let makespan t = if t.entries = [] then 0.0 else Sim.cpu_free_time t.st

let submit t ?(arrival = 0.0) (task : Task.t) =
  if Float.is_nan arrival || arrival < 0.0 || arrival = Float.infinity then
    invalid_arg "Engine.submit: arrival must be finite and non-negative";
  if task.Task.mem > t.capacity *. (1.0 +. 1e-12) then begin
    t.n_rejected <- t.n_rejected + 1;
    Rejected_too_big t.capacity
  end
  else if t.n_pending >= t.queue_limit then begin
    t.n_rejected <- t.n_rejected + 1;
    Rejected_queue_full t.queue_limit
  end
  else begin
    if Greedy.mem t.loop task.Task.id then
      invalid_arg
        (Printf.sprintf "Engine.submit: duplicate pending task id %d" task.Task.id);
    Greedy.add t.loop ~arrival task;
    t.n_pending <- t.n_pending + 1;
    Accepted
  end

let schedule t = Schedule.make ~capacity:t.capacity (List.rev t.entries)

let drain t =
  let fresh = Greedy.drain t.loop in
  let n = List.length fresh in
  t.entries <- List.rev_append fresh t.entries;
  t.fresh <- List.rev_append fresh t.fresh;
  t.n_pending <- t.n_pending - n;
  t.n_scheduled <- t.n_scheduled + n;
  fresh

let take_new_entries t =
  let taken = List.rev t.fresh in
  t.fresh <- [];
  taken
