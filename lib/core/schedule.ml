type entry = {
  task : Task.t;
  s_comm : float;
  s_comp : float;
}

type t = {
  entries : entry array;
  capacity : float;
}

let compare_entries a b =
  let c = Float.compare a.s_comm b.s_comm in
  if c <> 0 then c
  else
    let c = Float.compare a.s_comp b.s_comp in
    if c <> 0 then c else Int.compare a.task.Task.id b.task.Task.id

(* Seeds the entry array. Long-lived, because OCaml 5's [Array.make]
   (and [Array.of_list], which calls it) runs a minor collection when an
   array of more than 256 words is seeded with a young block, as a
   freshly made first entry is. *)
let filler =
  { task = Task.filler; s_comm = 0.0; s_comp = 0.0 }

let make ~capacity entries =
  let a = Array.make (List.length entries) filler in
  List.iteri (fun i e -> a.(i) <- e) entries;
  (* Every executor emits its entries in this order already. A strictly
     increasing array has exactly one sorted order, so it is kept. *)
  let rec ordered i =
    i + 1 >= Array.length a || (compare_entries a.(i) a.(i + 1) < 0 && ordered (i + 1))
  in
  if not (ordered 0) then Array.sort compare_entries a;
  { entries = a; capacity }

let entries t = Array.to_list t.entries

let size t = Array.length t.entries

let comm_end e = e.s_comm +. e.task.Task.comm

let comp_end e = e.s_comp +. e.task.Task.comp

let makespan t = Array.fold_left (fun acc e -> Float.max acc (comp_end e)) 0.0 t.entries

let comm_idle t =
  let horizon = Array.fold_left (fun acc e -> Float.max acc (comm_end e)) 0.0 t.entries in
  let busy = Array.fold_left (fun acc e -> acc +. e.task.Task.comm) 0.0 t.entries in
  horizon -. busy

let comp_idle t =
  let horizon = makespan t in
  let busy = Array.fold_left (fun acc e -> acc +. e.task.Task.comp) 0.0 t.entries in
  horizon -. busy

(* Overlap of the two busy-interval unions, computed by sweeping merged
   interval endpoints. Both resources are exclusive, so their busy sets are
   unions of disjoint intervals. *)
let overlap t =
  let comm_iv =
    Array.to_list (Array.map (fun e -> (e.s_comm, comm_end e)) t.entries)
  and comp_iv =
    Array.to_list (Array.map (fun e -> (e.s_comp, comp_end e)) t.entries)
  in
  let sorted l = List.sort (fun (a, _) (b, _) -> Float.compare a b) l in
  let rec inter acc l1 l2 =
    match (l1, l2) with
    | [], _ | _, [] -> acc
    | (s1, e1) :: r1, (s2, e2) :: r2 ->
        let lo = Float.max s1 s2 and hi = Float.min e1 e2 in
        let acc = if hi > lo then acc +. (hi -. lo) else acc in
        if e1 <= e2 then inter acc r1 l2 else inter acc l1 r2
  in
  inter 0.0 (sorted comm_iv) (sorted comp_iv)

let memory_at t time =
  Array.fold_left
    (fun acc e ->
      if e.s_comm <= time && time < comp_end e then acc +. e.task.Task.mem else acc)
    0.0 t.entries

let peak_memory t =
  (* Memory usage only increases at communication starts, so the peak is
     attained at one of them. *)
  Array.fold_left (fun acc e -> Float.max acc (memory_at t e.s_comm)) 0.0 t.entries

let same_order t =
  let n = Array.length t.entries in
  let ok = ref true in
  for i = 0 to n - 2 do
    if t.entries.(i).s_comp > t.entries.(i + 1).s_comp then ok := false
  done;
  !ok

type violation =
  | Comm_overlap of int * int
  | Comp_overlap of int * int
  | Data_not_ready of int
  | Memory_exceeded of float * float
  | Negative_time of int

let eps = 1e-9

let check t =
  let n = Array.length t.entries in
  let result = ref (Ok ()) in
  let fail v = if !result = Ok () then result := Error v in
  Array.iter
    (fun e ->
      if e.s_comm < -.eps || e.s_comp < -.eps then fail (Negative_time e.task.Task.id);
      if e.s_comp +. eps < comm_end e then fail (Data_not_ready e.task.Task.id))
    t.entries;
  ignore n;
  (* Exclusivity: only intervals of positive length can conflict; after
     sorting them by start, adjacent checks suffice. *)
  let check_exclusive intervals mk_violation =
    let positive = Array.of_list (List.filter (fun (s, e, _) -> e > s) intervals) in
    Array.sort (fun (s1, _, _) (s2, _, _) -> Float.compare s1 s2) positive;
    for i = 0 to Array.length positive - 2 do
      let _, e1, id1 = positive.(i) and s2, _, id2 = positive.(i + 1) in
      if e1 > s2 +. eps then fail (mk_violation id1 id2)
    done
  in
  let comm_intervals =
    Array.to_list
      (Array.map (fun e -> (e.s_comm, comm_end e, e.task.Task.id)) t.entries)
  and comp_intervals =
    Array.to_list
      (Array.map (fun e -> (e.s_comp, comp_end e, e.task.Task.id)) t.entries)
  in
  check_exclusive comm_intervals (fun a b -> Comm_overlap (a, b));
  check_exclusive comp_intervals (fun a b -> Comp_overlap (a, b));
  Array.iter
    (fun e ->
      let usage = memory_at t e.s_comm in
      if usage > t.capacity +. (eps *. Float.max 1.0 t.capacity) then
        fail (Memory_exceeded (e.s_comm, usage)))
    t.entries;
  !result

let violation_to_string = function
  | Comm_overlap (i, j) -> Printf.sprintf "communications of tasks %d and %d overlap" i j
  | Comp_overlap (i, j) -> Printf.sprintf "computations of tasks %d and %d overlap" i j
  | Data_not_ready i -> Printf.sprintf "task %d computes before its transfer completes" i
  | Memory_exceeded (t, u) -> Printf.sprintf "memory exceeded at time %g (usage %g)" t u
  | Negative_time i -> Printf.sprintf "task %d scheduled at a negative time" i

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule (makespan=%g, peak mem=%g)" (makespan t) (peak_memory t);
  Array.iter
    (fun e ->
      Format.fprintf ppf "@,  %s: comm [%g, %g) comp [%g, %g)" e.task.Task.label e.s_comm
        (comm_end e) e.s_comp (comp_end e))
    t.entries;
  Format.fprintf ppf "@]"
