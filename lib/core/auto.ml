let default_portfolio = Heuristic.all

let select ?(candidates = default_portfolio) instance =
  let evaluate h =
    let s = Heuristic.run h instance in
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

let run ?candidates instance = snd (select ?candidates instance)
