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

(* The position in an explicit order, as a comparator for the loop's
   static heap. *)
let rank_compare order =
  let rank = Hashtbl.create 64 in
  List.iteri (fun i (t : Task.t) -> Hashtbl.replace rank t.Task.id i) order;
  fun (a : Task.t) (b : Task.t) ->
    Int.compare (Hashtbl.find rank a.Task.id) (Hashtbl.find rank b.Task.id)

let run ?state ?order rule instance =
  let tasks, static =
    match order with
    | Some o -> (o, rank_compare o)
    | None -> (Instance.task_list instance, Johnson.compare)
  in
  Greedy.run ~who:"Corrected_rules.run" ?state ~static ~capacity:instance.Instance.capacity
    (criterion rule) tasks
