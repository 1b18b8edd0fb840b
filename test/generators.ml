(* QCheck2 generators shared by the property-test suites. *)

open Dt_core

let task_gen =
  QCheck2.Gen.(
    let* comm = map (fun x -> float_of_int x /. 4.0) (int_range 0 40) in
    let* comp = map (fun x -> float_of_int x /. 4.0) (int_range 0 40) in
    let* mem_extra = map (fun x -> float_of_int x /. 4.0) (int_range 0 8) in
    (* memory defaults to the communication time, sometimes padded, and is
       kept positive so that a capacity can always accommodate the task *)
    let mem = Float.max 0.25 (comm +. mem_extra) in
    return (fun id -> Task.make ~id ~comm ~comp ~mem ()))

(* An instance whose capacity always admits every task individually:
   capacity = m_c * (1 + slack). *)
let instance_gen ?(min_size = 1) ?(max_size = 8) () =
  QCheck2.Gen.(
    let* n = int_range min_size max_size in
    let* mk = list_repeat n task_gen in
    let* slack = map (fun x -> float_of_int x /. 8.0) (int_range 0 16) in
    let tasks = List.mapi (fun i f -> f i) mk in
    let m_c =
      List.fold_left (fun acc (t : Task.t) -> Float.max acc t.Task.mem) 0.25 tasks
    in
    return (Instance.make ~capacity:(m_c *. (1.0 +. slack)) tasks))

(* Instances where memory equals communication time exactly (the paper's
   convention), used by solvers that assume it. *)
let paper_instance_gen ?(min_size = 1) ?(max_size = 6) () =
  QCheck2.Gen.(
    let* n = int_range min_size max_size in
    let* pairs =
      list_repeat n
        (pair
           (map (fun x -> float_of_int x /. 2.0) (int_range 1 12))
           (map (fun x -> float_of_int x /. 2.0) (int_range 0 12)))
    in
    let* slack = map (fun x -> float_of_int x /. 4.0) (int_range 0 8) in
    let m_c = List.fold_left (fun acc (cm, _) -> Float.max acc cm) 0.5 pairs in
    return (Instance.of_triples ~capacity:(m_c *. (1.0 +. slack)) pairs))

(* Tasks carrying tile annotations with arbitrary shares: the shares are
   generated first and the totals padded on top of them, so [Task.make]'s
   share validation holds by construction. Per-list tile ids are made
   distinct by slotting. *)
let tiled_task_gen =
  QCheck2.Gen.(
    let ref_gen slot =
      let* tile = int_range 0 2 in
      let* c = map (fun x -> float_of_int x /. 4.0) (int_range 0 6) in
      let* m = map (fun x -> float_of_int x /. 4.0) (int_range 1 6) in
      return { Task.tile = (slot * 4) + tile; t_comm = c; t_mem = m }
    in
    let* nt = int_range 0 3 in
    let* tiles = flatten_l (List.init nt (fun s -> ref_gen s)) in
    let* extra_comm = map (fun x -> float_of_int x /. 4.0) (int_range 0 20) in
    let* extra_mem = map (fun x -> float_of_int x /. 4.0) (int_range 0 8) in
    let* comp = map (fun x -> float_of_int x /. 4.0) (int_range 0 40) in
    let sum_c = List.fold_left (fun a (r : Task.tile_ref) -> a +. r.Task.t_comm) 0.0 tiles in
    let sum_m = List.fold_left (fun a (r : Task.tile_ref) -> a +. r.Task.t_mem) 0.0 tiles in
    return (fun id ->
        Task.make ~id ~comm:(sum_c +. extra_comm) ~comp
          ~mem:(Float.max 0.25 (sum_m +. extra_mem))
          ~tiles ()))

(* Tile ids are global names, an array's base plus a tile index, so they
   may be sparse and large. [spread_tile] makes them so: a strictly
   increasing map, so that every tie broken by tile id falls the same way,
   to ids that differ only in their high bits. *)
let spread_tile t = t lsl 40

(* Tiled tasks whose shares are a fixed function of the tile id (as when
   tiles are real shared blocks): every task referencing tile [t] carves
   out the same (comm, mem) share, as the cached-never-worse property's
   guarantee assumes. The pool's ids are 0..7, spread when [spread]. *)
let pooled_task_gen ~spread =
  QCheck2.Gen.(
    let tile_share t = 0.25 *. float_of_int ((t mod 3) + 1) in
    let* ids = list_size (int_range 0 3) (int_range 0 7) in
    let tiles =
      List.map
        (fun t ->
          {
            Task.tile = (if spread then spread_tile t else t);
            t_comm = tile_share t;
            t_mem = tile_share t;
          })
        (List.sort_uniq compare ids)
    in
    let* extra_comm = map (fun x -> float_of_int x /. 4.0) (int_range 0 20) in
    let* extra_mem = map (fun x -> float_of_int x /. 4.0) (int_range 0 8) in
    let* comp = map (fun x -> float_of_int x /. 4.0) (int_range 0 40) in
    let sum = List.fold_left (fun a (r : Task.tile_ref) -> a +. r.Task.t_comm) 0.0 tiles in
    return (fun id ->
        Task.make ~id ~comm:(sum +. extra_comm) ~comp
          ~mem:(Float.max 0.25 (sum +. extra_mem))
          ~tiles ()))

(* [spread] (default: drawn, half the instances) spreads the tile ids. *)
let tiled_instance_gen ?(min_size = 1) ?(max_size = 8) ?spread () =
  QCheck2.Gen.(
    let* n = int_range min_size max_size in
    let* spread = match spread with Some s -> return s | None -> bool in
    let* mk = list_repeat n (pooled_task_gen ~spread) in
    let* slack = map (fun x -> float_of_int x /. 8.0) (int_range 0 16) in
    let tasks = List.mapi (fun i f -> f i) mk in
    let m_c =
      List.fold_left (fun acc (t : Task.t) -> Float.max acc t.Task.mem) 0.25 tasks
    in
    return (Instance.make_keep_ids ~capacity:(m_c *. (1.0 +. slack)) tasks))

(* The same tasks with every tile id spread. *)
let spread_tiles (t : Task.t) =
  let spread (r : Task.tile_ref) = { r with Task.tile = spread_tile r.Task.tile } in
  Task.make ~label:t.Task.label ~id:t.Task.id ~comm:t.Task.comm ~comp:t.Task.comp ~mem:t.Task.mem
    ~tiles:(List.map spread t.Task.tiles) ()

let instance_print i = Format.asprintf "%a" Instance.pp i

let prop_test ?(count = 300) ~name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:instance_print gen prop)

let check_feasible name instance sched =
  match Schedule.check sched with
  | Ok () -> true
  | Error v ->
      QCheck2.Test.fail_reportf "%s: invalid schedule (%s) on %a" name
        (Schedule.violation_to_string v) Instance.pp instance

(* The validator for cached runs ([Sim.run_order_cached], [Cached_rules]).
   [Schedule.check] charges each entry its full [mem], so a tile pinned
   by two tasks in flight counts twice there and a valid cached run can
   fail it. This check holds that every task of the instance is
   scheduled exactly once; that transfers never overlap, nor
   computations, and no computation starts before its data (through
   [Schedule.check] with the memory bound lifted); and that at each
   transfer start the private shares ([mem] minus the tile shares) of
   the tasks in flight, plus each distinct tile they pin counted once,
   fit the capacity. Entries hold [Task.charged] copies, so each id's
   tiles are looked up in the instance. Unpinned resident tiles leave no
   trace in the entries, so a missed eviction is not caught here: the
   pins against [Reference.Cached] cover it. *)
let check_cached_feasible (instance : Instance.t) sched =
  let fail what =
    QCheck2.Test.fail_reportf "invalid cached schedule (%s) on %a" what Instance.pp instance
  in
  let entries = Schedule.entries sched in
  let tasks = Hashtbl.create 64 in
  List.iter (fun (t : Task.t) -> Hashtbl.replace tasks t.Task.id t) (Instance.task_list instance);
  let ids l = List.sort Int.compare (List.map (fun (t : Task.t) -> t.Task.id) l) in
  if ids (List.map (fun (e : Schedule.entry) -> e.Schedule.task) entries)
     <> ids (Instance.task_list instance)
  then fail "the instance's tasks are not each scheduled once"
  else
    match Schedule.check (Schedule.make ~capacity:Float.infinity entries) with
    | Error v -> fail (Schedule.violation_to_string v)
    | Ok () ->
        let kcap = instance.Instance.capacity *. (1.0 +. 1e-12) in
        let usage_at time =
          let pinned = Hashtbl.create 8 in
          let private_mem =
            List.fold_left
              (fun acc (e : Schedule.entry) ->
                if e.Schedule.s_comm <= time && time < Schedule.comp_end e then begin
                  let t = Hashtbl.find tasks e.Schedule.task.Task.id in
                  List.iter
                    (fun (r : Task.tile_ref) -> Hashtbl.replace pinned r.Task.tile r.Task.t_mem)
                    t.Task.tiles;
                  acc
                  +. (t.Task.mem
                     -. List.fold_left (fun a (r : Task.tile_ref) -> a +. r.Task.t_mem) 0.0
                          t.Task.tiles)
                end
                else acc)
              0.0 entries
          in
          Hashtbl.fold (fun _ m acc -> acc +. m) pinned private_mem
        in
        match
          List.find_opt (fun (e : Schedule.entry) -> usage_at e.Schedule.s_comm > kcap) entries
        with
        | Some e ->
            fail
              (Printf.sprintf "memory %g above capacity %g at time %g"
                 (usage_at e.Schedule.s_comm) instance.Instance.capacity e.Schedule.s_comm)
        | None -> true
