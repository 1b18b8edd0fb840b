type criterion = Candidates.criterion =
  | LCMR
  | SCMR
  | MAMR

let all = [ LCMR; SCMR; MAMR ]

let name = function
  | LCMR -> "LCMR"
  | SCMR -> "SCMR"
  | MAMR -> "MAMR"

let run ?state ?min_idle_filter criterion instance =
  Greedy.run ~who:"Dynamic_rules.run" ?state ?min_idle_filter
    ~capacity:instance.Instance.capacity criterion (Instance.task_list instance)
