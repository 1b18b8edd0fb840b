type waiting = { arrival : float; task : Task.t }

type t = {
  capacity : float;
  kcap : float; (* capacity *. (1. +. 1e-12), the Sim.fits_now bound *)
  crit : Candidates.criterion;
  min_idle_filter : bool option;
  st : Sim.state;
  cand : Candidates.t; (* arrived, unscheduled, under the static order if any *)
  future : waiting Iheap.t; (* added, not yet arrived (dormant), by arrival *)
}

let create ?(state = Sim.initial_state ()) ?min_idle_filter ?static ~capacity crit =
  {
    capacity;
    kcap = capacity *. (1.0 +. 1e-12);
    crit;
    min_idle_filter;
    st = state;
    cand = Candidates.create ?static ();
    future = Iheap.create ~cmp:(fun a b -> Float.compare a.arrival b.arrival);
  }

let mem g id = Option.is_some (Candidates.find g.cand id)

let add g ~arrival (task : Task.t) =
  if arrival <= Sim.link_free_time g.st then Candidates.add g.cand task
  else begin
    Candidates.reserve g.cand task;
    Iheap.add g.future { arrival; task }
  end

let rec promote g =
  match Iheap.peek g.future with
  | Some w when w.arrival <= Sim.link_free_time g.st ->
      ignore (Iheap.pop g.future);
      Candidates.add g.cand w.task;
      promote g
  | _ -> ()

let select g ~used =
  Candidates.select ?min_idle_filter:g.min_idle_filter g.cand g.crit ~used ~kcap:g.kcap
    ~cpu_free:(Sim.cpu_free_time g.st) ~now:(Sim.link_free_time g.st)

(* The static order's head among the arrived tasks if it fits, else the
   criterion's choice. *)
let choose g =
  let used = Sim.memory_in_use g.st in
  match Candidates.static_head g.cand with
  | Some next when used +. next.Task.mem <= g.kcap -> Some next
  | _ -> select g ~used

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
  (* every task arrives at 0, at or before the link-free instant *)
  Candidates.load g.cand tasks;
  let entries = drain g in
  Candidates.release g.cand;
  Schedule.make ~capacity entries
