let slices ~batch l =
  if batch < 1 then invalid_arg "Batched.slices: batch must be >= 1";
  let rec take n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (n - 1) (x :: acc) rest
  in
  let rec loop = function
    | [] -> []
    | l ->
        let s, rest = take batch [] l in
        s :: loop rest
  in
  loop l

let run ?lp_node_limit ~batch heuristic instance =
  let capacity = instance.Instance.capacity in
  (* The executor state after the entries so far is determined by the
     entries themselves, so every engine (lp.k included, which works on
     boundaries rather than states) starts a batch from the same footing.
     It is carried from batch to batch: the running link and processor
     release times, and the entries still holding memory, in entry order.
     An entry released by the link-free instant stays released, since
     that instant only grows. *)
  let rec loop link_free cpu_free held acc = function
    | [] -> Schedule.make ~capacity (List.rev acc)
    | tasks :: rest ->
        let state = Sim.restore_state ~link_free ~cpu_free ~held in
        let sub = Instance.make_keep_ids ~capacity tasks in
        let es = Schedule.entries (Heuristic.run ~state ?lp_node_limit heuristic sub) in
        let link_free = List.fold_left (fun a e -> Float.max a (Schedule.comm_end e)) link_free es
        and cpu_free = List.fold_left (fun a e -> Float.max a (Schedule.comp_end e)) cpu_free es in
        let held =
          List.filter (fun (ce, _) -> ce > link_free) held
          @ List.filter_map
              (fun e ->
                let ce = Schedule.comp_end e in
                if ce > link_free then Some (ce, e.Schedule.task.Task.mem) else None)
              es
        in
        loop link_free cpu_free held (List.rev_append es acc) rest
  in
  loop 0.0 0.0 [] [] (slices ~batch (Instance.task_list instance))
