(* First-improvement adjacent-swap hill climbing, made incremental: the
   executor state after every prefix of the current order is cached, so
   evaluating the swap at position [i] copies the state at [i] and
   re-simulates only positions [i..n-1] — the prefix [0..i-1] is untouched
   by the swap.  The candidate's makespan is read straight off the final
   processor availability (computations are sequential, so the last one to
   finish defines the makespan), which avoids building a [Schedule.t]
   (entry list, sort) per candidate.  Swaps are performed in place and
   undone on rejection; the only per-candidate allocation left is the
   state copy. *)

(* The executor state before any task, shared by every call: [improve]
   only ever copies [states.(0)]. Being long-lived, it seeds [states]
   without the minor collection that OCaml 5's [Array.make] forces when
   an array of more than 256 words is seeded with a young block. *)
let start_state = Sim.initial_state ()

let improve ?(max_rounds = 50) ~capacity order =
  let current = Array.of_list order in
  let n = Array.length current in
  Array.iter
    (fun (t : Task.t) ->
      if t.Task.mem > capacity *. (1.0 +. 1e-12) then
        invalid_arg
          (Printf.sprintf "Local_search.improve: task %d needs %g > capacity %g"
             t.Task.id t.Task.mem capacity))
    current;
  if n < 2 then (order, Schedule.makespan (Sim.run_order_exn ~capacity order))
  else begin
    (* states.(j) = executor state after scheduling current.(0 .. j-1) *)
    let states = Array.make (n + 1) start_state in
    let refresh_from i =
      for j = i to n - 1 do
        let st = Sim.copy_state states.(j) in
        ignore (Sim.schedule_task st ~capacity current.(j));
        states.(j + 1) <- st
      done
    in
    refresh_from 0;
    let best = ref (Sim.cpu_free_time states.(n)) in
    let improved = ref true in
    let rounds = ref 0 in
    while !improved && !rounds < max_rounds do
      improved := false;
      incr rounds;
      for i = 0 to n - 2 do
        (* swap in place, evaluate from the cached prefix, undo if worse *)
        let a = current.(i) in
        current.(i) <- current.(i + 1);
        current.(i + 1) <- a;
        let st = Sim.copy_state states.(i) in
        for j = i to n - 1 do
          ignore (Sim.schedule_task st ~capacity current.(j))
        done;
        let mk = Sim.cpu_free_time st in
        if mk < !best -. 1e-12 then begin
          best := mk;
          improved := true;
          refresh_from i
        end
        else begin
          let b = current.(i) in
          current.(i) <- current.(i + 1);
          current.(i + 1) <- b
        end
      done
    done;
    (Array.to_list current, !best)
  end

let polish heuristic instance =
  let capacity = instance.Instance.capacity in
  let sched = Heuristic.run heuristic instance in
  let order = List.map (fun e -> e.Schedule.task) (Schedule.entries sched) in
  let order', mk = improve ~capacity order in
  if mk < Schedule.makespan sched then Sim.run_order_exn ~capacity order' else sched
