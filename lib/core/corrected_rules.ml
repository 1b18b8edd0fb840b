type rule =
  | OOLCMR
  | OOSCMR
  | OOMAMR

let all = [ OOLCMR; OOSCMR; OOMAMR ]

let name = function
  | OOLCMR -> "OOLCMR"
  | OOSCMR -> "OOSCMR"
  | OOMAMR -> "OOMAMR"

let criterion = function
  | OOLCMR -> Dynamic_rules.LCMR
  | OOSCMR -> Dynamic_rules.SCMR
  | OOMAMR -> Dynamic_rules.MAMR

(* The position in an explicit order, as the loop's static rank. *)
let rank_of order =
  let rank = Hashtbl.create 64 in
  List.iteri (fun i (t : Task.t) -> Hashtbl.replace rank t.Task.id i) order;
  fun (t : Task.t) -> Hashtbl.find rank t.Task.id

let run ?state ?order rule instance =
  let tasks, static =
    match order with
    | Some o -> (o, Candidates.Rank (rank_of o))
    | None -> (Instance.task_list instance, Candidates.Johnson)
  in
  Greedy.run ~who:"Corrected_rules.run" ?state ~static ~capacity:instance.Instance.capacity
    (criterion rule) tasks
