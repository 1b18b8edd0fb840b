type waiting = { arrival : float; task : Task.t }

type t = {
  capacity : float;
  kcap : float; (* capacity *. (1. +. 1e-12), the Sim.fits_now bound *)
  crit : Candidates.criterion;
  min_idle_filter : bool option;
  st : Sim.state;
  cand : Candidates.t; (* arrived, unscheduled *)
  (* corrected heuristics only: the arrived tasks under the static order.
     A task a correction schedules out of turn stays in place and is
     dropped when it reaches the top. *)
  order : Task.t Iheap.t option;
  future : waiting Iheap.t; (* added, not yet arrived (dormant), by arrival *)
}

let create ?(state = Sim.initial_state ()) ?min_idle_filter ?static ~capacity crit =
  {
    capacity;
    kcap = capacity *. (1.0 +. 1e-12);
    crit;
    min_idle_filter;
    st = state;
    cand = Candidates.create ();
    order = Option.map (fun cmp -> Iheap.create ~cmp) static;
    future = Iheap.create ~cmp:(fun a b -> Float.compare a.arrival b.arrival);
  }

let mem g id = Option.is_some (Candidates.find g.cand id)

let arrive g task =
  Candidates.add g.cand task;
  match g.order with Some h -> Iheap.add h task | None -> ()

let add g ~arrival (task : Task.t) =
  if arrival <= Sim.link_free_time g.st then arrive g task
  else begin
    Candidates.reserve g.cand task;
    Iheap.add g.future { arrival; task }
  end

let rec promote g =
  match Iheap.peek g.future with
  | Some w when w.arrival <= Sim.link_free_time g.st ->
      ignore (Iheap.pop g.future);
      arrive g w.task;
      promote g
  | _ -> ()

(* The static order's head among the arrived, unscheduled tasks. An entry
   is live only if the candidate index holds that very task: after a
   correction scheduled it, its id may be reused by a later task. *)
let rec head g h =
  match Iheap.peek h with
  | None -> None
  | Some x -> (
      match Candidates.find g.cand x.Task.id with
      | Some y when y == x -> Some x
      | _ ->
          ignore (Iheap.pop h);
          head g h)

let select g ~used =
  Candidates.select ?min_idle_filter:g.min_idle_filter g.cand g.crit ~used ~kcap:g.kcap
    ~cpu_free:(Sim.cpu_free_time g.st) ~now:(Sim.link_free_time g.st)

let choose g =
  let used = Sim.memory_in_use g.st in
  match g.order with
  | None -> select g ~used
  | Some h -> (
      match head g h with
      | Some next when used +. next.Task.mem <= g.kcap ->
          ignore (Iheap.pop h);
          Some next
      | _ -> select g ~used)

(* One decision point: schedule a task, or advance time to the next event
   and retry, or report that nothing is pending. *)
let rec step g =
  Sim.settle g.st;
  promote g;
  if Candidates.size g.cand = 0 then
    match Iheap.peek g.future with
    | None -> None
    | Some w ->
        Sim.advance_link_to g.st w.arrival;
        step g
  else
    match choose g with
    | Some task ->
        Candidates.remove g.cand task;
        Some (Sim.schedule_task g.st ~capacity:g.capacity task)
    | None ->
        (match (Sim.next_release_time g.st, Iheap.peek g.future) with
        | Some r, Some w when w.arrival < r -> Sim.advance_link_to g.st w.arrival
        | Some _, _ ->
            let advanced = Sim.advance_to_next_release g.st in
            assert advanced
        | None, Some w -> Sim.advance_link_to g.st w.arrival
        | None, None ->
            (* every arrived task fits the capacity alone, so with no
               memory held something must fit *)
            assert false);
        step g

let drain g =
  let rec loop acc = match step g with Some e -> loop (e :: acc) | None -> List.rev acc in
  loop []

let run ~who ?state ?min_idle_filter ?static ~capacity crit tasks =
  List.iter
    (fun (t : Task.t) ->
      if t.Task.mem > capacity *. (1.0 +. 1e-12) then
        invalid_arg
          (Printf.sprintf "%s: task %d needs %g > capacity %g" who t.Task.id t.Task.mem
             capacity))
    tasks;
  let g = create ?state ?min_idle_filter ?static ~capacity crit in
  List.iter (add g ~arrival:0.0) tasks;
  let entries = drain g in
  Candidates.release g.cand;
  Schedule.make ~capacity entries
