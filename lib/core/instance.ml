type t = {
  tasks : Task.t array;
  capacity : float;
}

(* [Array.of_list] would seed the array with the list's head, a young
   block when the tasks are fresh: a forced minor collection. *)
let array_of_tasks tasks =
  let a = Array.make (List.length tasks) Task.filler in
  List.iteri (fun i t -> a.(i) <- t) tasks;
  a

let make ~capacity tasks =
  if capacity <= 0.0 then invalid_arg "Instance.make: capacity must be positive";
  let tasks = array_of_tasks (List.mapi (fun i t -> Task.with_id t i) tasks) in
  { tasks; capacity }

let make_keep_ids ~capacity tasks =
  if capacity <= 0.0 then invalid_arg "Instance.make_keep_ids: capacity must be positive";
  let ids = List.map (fun (t : Task.t) -> t.Task.id) tasks in
  if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
    invalid_arg "Instance.make_keep_ids: duplicate task ids";
  { tasks = array_of_tasks tasks; capacity }

let of_triples ~capacity pairs =
  let mk i (comm, comp) = Task.make ~id:i ~comm ~comp () in
  make ~capacity (List.mapi mk pairs)

let with_capacity t capacity =
  if capacity <= 0.0 then invalid_arg "Instance.with_capacity: capacity must be positive";
  { t with capacity }

let size t = Array.length t.tasks

let task t i = t.tasks.(i)

let task_list t = Array.to_list t.tasks

let min_capacity t =
  Array.fold_left (fun acc (tk : Task.t) -> Float.max acc tk.mem) 0.0 t.tasks

let sum_comm t = Array.fold_left (fun acc (tk : Task.t) -> acc +. tk.comm) 0.0 t.tasks

let sum_comp t = Array.fold_left (fun acc (tk : Task.t) -> acc +. tk.comp) 0.0 t.tasks

let serial_makespan t = sum_comm t +. sum_comp t

let area_bound t = Float.max (sum_comm t) (sum_comp t)

let feasible t = min_capacity t <= t.capacity

let pp ppf t =
  Format.fprintf ppf "@[<v>instance (n=%d, C=%g)" (size t) t.capacity;
  Array.iter (fun tk -> Format.fprintf ppf "@,  %a" Task.pp tk) t.tasks;
  Format.fprintf ppf "@]"
