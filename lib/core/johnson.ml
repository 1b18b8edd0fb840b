let compare (a : Task.t) (b : Task.t) =
  match (Task.is_compute_intensive a, Task.is_compute_intensive b) with
  | true, false -> -1
  | false, true -> 1
  | ci, _ ->
      let c =
        if ci then Float.compare a.Task.comm b.Task.comm
        else Float.compare b.Task.comp a.Task.comp
      in
      if c <> 0 then c else Task.compare_id a b

let order tasks = List.sort compare tasks

let omim_schedule tasks = Sim.run_order_exn ~capacity:Float.infinity (order tasks)

let omim tasks = Schedule.makespan (omim_schedule tasks)
