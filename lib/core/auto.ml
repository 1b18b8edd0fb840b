let default_portfolio = Heuristic.all

let best_on ?state ~candidates instance =
  let evaluate h =
    let st = Option.map Sim.copy_state state in
    let s = Heuristic.run ?state:st h instance in
    (h, s, Schedule.makespan s)
  in
  match candidates with
  | [] -> invalid_arg "Auto: empty candidate list"
  | first :: rest ->
      (* Candidates run in list order and only the best schedule so far is
         kept, so the losers die young. First strictly-better wins: ties
         keep the earliest candidate. *)
      let h, s, _ =
        List.fold_left
          (fun ((_, _, mb) as best) h ->
            let (_, _, m) as c = evaluate h in
            if Float.compare m mb < 0 then c else best)
          (evaluate first) rest
      in
      (h, s)

let select ?(candidates = default_portfolio) instance = best_on ~candidates instance

let run ?candidates instance = snd (select ?candidates instance)

let run_batched ?(candidates = default_portfolio) ~batch instance =
  let capacity = instance.Instance.capacity in
  let winners = ref [] and rev_entries = ref [] in
  (* [rev_entries] holds all scheduled entries so far in reverse; every
     fold below is order-insensitive, and the final Schedule.make sorts,
     so accumulating by [rev_append] (O(batch) per batch instead of the
     O(total) of appending on the right) changes nothing observable. *)
  let state_of_entries es =
    let link_free = List.fold_left (fun acc e -> Float.max acc (Schedule.comm_end e)) 0.0 es
    and cpu_free = List.fold_left (fun acc e -> Float.max acc (Schedule.comp_end e)) 0.0 es in
    let held =
      List.filter_map
        (fun e ->
          let ce = Schedule.comp_end e in
          if ce > link_free then Some (ce, e.Schedule.task.Task.mem) else None)
        es
    in
    Sim.restore_state ~link_free ~cpu_free ~held
  in
  List.iter
    (fun tasks ->
      let sub = Instance.make_keep_ids ~capacity tasks in
      let state = state_of_entries !rev_entries in
      let h, sched = best_on ~state ~candidates sub in
      winners := h :: !winners;
      rev_entries := List.rev_append (Schedule.entries sched) !rev_entries)
    (Batched.slices ~batch (Instance.task_list instance));
  (List.rev !winners, Schedule.make ~capacity (List.rev !rev_entries))
