(* Equivalence pinning for the O(n log n) decision loop: the shared
   greedy loop (Candidates index with its static head, arrival heap) must
   produce bit-identical schedules to the frozen quadratic copies in
   Reference, on every policy, with and without the min-idle filter, and
   under random arrival times. *)

open Dt_core
module Engine = Dt_runtime.Engine

let same_schedule a b =
  let ea = Schedule.entries a and eb = Schedule.entries b in
  List.length ea = List.length eb
  && List.for_all2
       (fun (x : Schedule.entry) (y : Schedule.entry) ->
         Task.equal x.Schedule.task y.Schedule.task
         && x.Schedule.s_comm = y.Schedule.s_comm
         && x.Schedule.s_comp = y.Schedule.s_comp)
       ea eb

(* Drain the engine, then read its whole schedule so far. *)
let drained eng =
  ignore (Engine.drain eng);
  Engine.schedule eng

(* Larger instances than the default generator: deep release/blocked
   interleavings only appear past a few dozen tasks. *)
let instance_gen = Generators.instance_gen ~min_size:1 ~max_size:40 ()

let dynamic_prop criterion filter =
  Generators.prop_test ~count:300
    ~name:
      (Printf.sprintf "Dynamic %s (min-idle %s) = reference, bit for bit"
         (Dynamic_rules.name criterion)
         (if filter then "on" else "off"))
    instance_gen
    (fun i ->
      same_schedule
        (Dynamic_rules.run ~min_idle_filter:filter criterion i)
        (Reference.Dyn.run ~min_idle_filter:filter criterion i))

let corrected_prop rule =
  Generators.prop_test ~count:300
    ~name:
      (Printf.sprintf "Corrected %s = reference, bit for bit" (Corrected_rules.name rule))
    instance_gen
    (fun i -> same_schedule (Corrected_rules.run rule i) (Reference.Cor.run rule i))

(* Online: an instance plus one arrival time per task. *)
let online_gen =
  QCheck2.Gen.(
    let* i = instance_gen in
    let* arrivals =
      list_repeat (Instance.size i)
        (map (fun x -> float_of_int x /. 4.0) (int_range 0 120))
    in
    return (i, arrivals))

let online_print (i, arrivals) =
  Printf.sprintf "%s arrivals=[%s]" (Generators.instance_print i)
    (String.concat "; " (List.map (Printf.sprintf "%g") arrivals))

let online_prop_test ~name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name ~print:online_print online_gen prop)

let engine_prop policy =
  online_prop_test
    ~name:
      (Printf.sprintf "Engine %s with random arrivals = reference, bit for bit"
         (Engine.policy_name policy))
    (fun (i, arrivals) ->
      let capacity = i.Instance.capacity in
      let eng = Engine.create ~policy ~capacity () in
      let reference = Reference.Eng.create ~policy ~capacity () in
      List.iter2
        (fun task arrival ->
          (match Engine.submit eng ~arrival task with
          | Engine.Accepted -> ()
          | a -> QCheck2.Test.fail_reportf "submission not accepted: %s"
                   (Engine.admission_to_string a));
          Reference.Eng.submit reference ~arrival task)
        (Instance.task_list i) arrivals;
      same_schedule (drained eng) (Reference.Eng.drain reference))

(* Satellite: an out-of-order (here: fully reversed) submission stream
   must land on the same schedule as the in-order one — the arrival heap
   canonicalises (arrival, id) regardless of submission order. *)
let reversed_replay_prop =
  online_prop_test ~name:"reversed-arrival replay = in-order replay, bit for bit"
    (fun (i, arrivals) ->
      let capacity = i.Instance.capacity in
      let pairs = List.combine (Instance.task_list i) arrivals in
      let run order =
        let eng = Engine.create ~capacity () in
        List.iter (fun (task, arrival) -> ignore (Engine.submit eng ~arrival task)) order;
        drained eng
      in
      same_schedule (run pairs) (run (List.rev pairs)))

(* The loop's paths that the pins above do not reach: an explicit static
   order (the order ablation), a non-zero starting state (batch
   chaining), and an engine session that goes on after a drain with
   reused ids. *)

let pinned_prop ~name ~print gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name ~print gen prop)

let order_gen =
  QCheck2.Gen.(
    let* i = instance_gen in
    let* order = shuffle_l (Instance.task_list i) in
    return (i, order))

let order_print (i, order) =
  Printf.sprintf "%s order=[%s]" (Generators.instance_print i)
    (String.concat "; " (List.map (fun (t : Task.t) -> string_of_int t.Task.id) order))

let corrected_order_prop rule =
  pinned_prop
    ~name:
      (Printf.sprintf "Corrected %s with ?order = reference, bit for bit"
         (Corrected_rules.name rule))
    ~print:order_print order_gen
    (fun (i, order) ->
      same_schedule (Corrected_rules.run ~order rule i) (Reference.Cor.run ~order rule i))

(* Two static orders on one task sequence share its layout but never its
   static order: the explicit order here is the instance's own task
   sequence, so the default run and the ?order run lay out physically the
   same tasks, one after the other on one domain. *)
let corrected_two_orders_prop =
  Generators.prop_test ~count:200
    ~name:"Corrected default and ?order in turn on one task sequence = reference"
    instance_gen (fun i ->
      let order = Instance.task_list i in
      let default r = same_schedule (Corrected_rules.run r i) (Reference.Cor.run r i)
      and ordered r =
        same_schedule (Corrected_rules.run ~order r i) (Reference.Cor.run ~order r i)
      in
      List.for_all (fun r -> default r && ordered r && default r) Corrected_rules.all)

(* A state handed over from an earlier batch: the link and the processor
   busy for a while, and up to two tasks still holding memory, released
   no later than the processor frees up. *)
let state_gen =
  QCheck2.Gen.(
    let quarter hi = map (fun x -> float_of_int x /. 4.0) (int_range 0 hi) in
    let* i = instance_gen in
    let* link_free = quarter 40 in
    let* cpu_free = map (( +. ) link_free) (quarter 40) in
    let* held =
      list_size (int_range 0 2)
        (pair
           (map (fun k -> cpu_free *. float_of_int k /. 8.0) (int_range 0 8))
           (map (fun k -> i.Instance.capacity *. float_of_int k /. 8.0) (int_range 1 4)))
    in
    return (i, (link_free, cpu_free, held)))

let state_print (i, (link_free, cpu_free, held)) =
  Printf.sprintf "%s link_free=%g cpu_free=%g held=[%s]" (Generators.instance_print i)
    link_free cpu_free
    (String.concat "; " (List.map (fun (t, m) -> Printf.sprintf "(%g, %g)" t m) held))

let restored (link_free, cpu_free, held) = Sim.restore_state ~link_free ~cpu_free ~held

let dynamic_state_prop =
  pinned_prop ~name:"Dynamic from a restored state = reference, bit for bit"
    ~print:state_print state_gen (fun (i, s) ->
      let st = restored s in
      List.for_all
        (fun c ->
          List.for_all
            (fun filter ->
              same_schedule
                (Dynamic_rules.run ~state:(Sim.copy_state st) ~min_idle_filter:filter c i)
                (Reference.Dyn.run ~state:(Sim.copy_state st) ~min_idle_filter:filter c i))
            [ true; false ])
        Dynamic_rules.all)

let corrected_state_prop =
  pinned_prop ~name:"Corrected from a restored state = reference, bit for bit"
    ~print:state_print state_gen (fun (i, s) ->
      let st = restored s in
      List.for_all
        (fun r ->
          same_schedule
            (Corrected_rules.run ~state:(Sim.copy_state st) r i)
            (Reference.Cor.run ~state:(Sim.copy_state st) r i))
        Corrected_rules.all)

(* A second batch drawn like the first, so its ids 0.. reuse the first
   batch's, with arrivals within 10 time units on either side of the
   engine's clock after the first drain. *)
let two_batch_gen =
  QCheck2.Gen.(
    let* first = online_gen in
    let* i2 = instance_gen in
    let* offsets =
      list_repeat (Instance.size i2)
        (map (fun x -> float_of_int x /. 4.0) (int_range (-40) 40))
    in
    return (first, (i2, offsets)))

let two_batch_print (first, (i2, offsets)) =
  Printf.sprintf "first: %s second: %s offsets=[%s]" (online_print first)
    (Generators.instance_print i2)
    (String.concat "; " (List.map (Printf.sprintf "%g") offsets))

let engine_two_batch_prop policy =
  pinned_prop
    ~name:
      (Printf.sprintf "Engine %s, two batches with reused ids = reference, bit for bit"
         (Engine.policy_name policy))
    ~print:two_batch_print two_batch_gen
    (fun ((i1, arrivals), (i2, offsets)) ->
      let capacity = Float.max i1.Instance.capacity i2.Instance.capacity in
      let eng = Engine.create ~policy ~capacity () in
      let reference = Reference.Eng.create ~policy ~capacity () in
      let submit_all tasks arrivals =
        List.iter2
          (fun task arrival ->
            (match Engine.submit eng ~arrival task with
            | Engine.Accepted -> ()
            | a ->
                QCheck2.Test.fail_reportf "submission not accepted: %s"
                  (Engine.admission_to_string a));
            Reference.Eng.submit reference ~arrival task)
          tasks arrivals
      in
      submit_all (Instance.task_list i1) arrivals;
      let first = same_schedule (drained eng) (Reference.Eng.drain reference) in
      let now = Engine.now eng in
      submit_all (Instance.task_list i2)
        (List.map (fun d -> Float.max 0.0 (now +. d)) offsets);
      first && same_schedule (drained eng) (Reference.Eng.drain reference))

(* The evict-aware loop (Candidates index for the cold tasks, a scanned
   warm set) against the frozen list scan, on tiled instances whose tasks
   share pool tiles: entries and cache statistics must agree under both
   eviction policies, and the schedule must pass the cached validator
   (the frozen scan runs on the same executor, so the pin alone would
   not see the executor go wrong). The loop always filters by min idle
   time, as the name says. *)
let tiled_gen = Generators.tiled_instance_gen ~min_size:1 ~max_size:40 ()

let cached_prop criterion =
  Generators.prop_test ~count:300
    ~name:
      (Printf.sprintf "Cached %s (min-idle on) = reference, entries and stats"
         (Dynamic_rules.name criterion))
    tiled_gen
    (fun i ->
      List.for_all
        (fun policy ->
          let sched, stats = Cached_rules.run ~policy criterion i in
          let ref_sched, ref_stats = Reference.Cached.run ~policy criterion i in
          same_schedule sched ref_sched && stats = ref_stats
          && Generators.check_cached_feasible i sched)
        Residency.all_policies)

(* The candidate index against a task-list model, over random
   interleavings of add and reserve batches (ids reused after removal),
   arrivals of reserved tasks, re-adds of removed tasks, removes and
   selections under every criterion, filter on and off, with and without
   an idle floor. The model's selection is the frozen list scan over the
   fitting live tasks, after the floor rule of candidates.mli: with the
   filter on, tasks idle beyond [Float.min least floor +. 1e-12] drop
   out. An index with a static order (Johnson's, or a random rank with
   ties) must also name, after every operation, the model's least live
   task under that order as its static head. And a filtered select must
   hand back, after every operation that leaves no task pending, the
   min-idle bound the model's two selects give, with a finite floor and
   with none. *)
type spec = { s_comm : float; s_comp : float; s_mem : float }

type query = {
  crit : Candidates.criterion;
  filter : bool;
  floor : float option;
  used : float;
  kcap : float;
  cpu_free : float;
  now : float;
}

type op =
  | Add of spec list (* a batch, given the smallest absent ids *)
  | Reserve of spec list (* likewise, dormant *)
  | Arrive of int (* add the k-th dormant task *)
  | Readd of int (* add the k-th removed task again *)
  | Add_present of int (* a copy of the k-th present task: must raise *)
  | Remove of int (* the k-th present task *)
  | Remove_absent
  | Select of query

let quarter hi = QCheck2.Gen.map (fun x -> float_of_int x /. 4.0) (QCheck2.Gen.int_range 0 hi)

let op_gen =
  QCheck2.Gen.(
    let spec =
      let* s_comm = quarter 24 and* s_comp = quarter 24 and* s_mem = quarter 40 in
      return { s_comm; s_comp; s_mem = Float.max 0.25 s_mem }
    in
    let batch = list_size (oneof [ int_range 1 3; int_range 4 16 ]) spec in
    let query =
      let* crit = oneofl Dynamic_rules.all
      and* filter = bool
      and* floor = option (quarter 40)
      and* used = quarter 40
      and* kcap = map (fun k -> if k > 60 then Float.infinity else float_of_int k /. 4.0) (int_range 0 64)
      and* cpu_free = quarter 80
      and* now = quarter 40 in
      return { crit; filter; floor; used; kcap; cpu_free; now }
    in
    frequency
      [
        (3, map (fun b -> Add b) batch);
        (2, map (fun b -> Reserve b) batch);
        (2, map (fun k -> Arrive k) nat);
        (2, map (fun k -> Readd k) nat);
        (1, map (fun k -> Add_present k) nat);
        (4, map (fun k -> Remove k) nat);
        (1, return Remove_absent);
        (6, map (fun q -> Select q) query);
      ])

let op_print = function
  | (Add b | Reserve b) as op ->
      Printf.sprintf "%s [%s]"
        (match op with Add _ -> "Add" | _ -> "Reserve")
        (String.concat "; "
           (List.map (fun s -> Printf.sprintf "(%g, %g, %g)" s.s_comm s.s_comp s.s_mem) b))
  | Arrive k -> Printf.sprintf "Arrive %d" k
  | Readd k -> Printf.sprintf "Readd %d" k
  | Add_present k -> Printf.sprintf "Add_present %d" k
  | Remove k -> Printf.sprintf "Remove %d" k
  | Remove_absent -> "Remove_absent"
  | Select q ->
      Printf.sprintf "Select %s filter=%b floor=%s used=%g kcap=%g cpu_free=%g now=%g"
        (Dynamic_rules.name q.crit) q.filter
        (match q.floor with Some f -> Printf.sprintf "%g" f | None -> "-")
        q.used q.kcap q.cpu_free q.now

let model_select live q =
  let fitting = List.filter (fun (t : Task.t) -> q.used +. t.Task.mem <= q.kcap) live in
  let fitting =
    match q.floor with
    | Some floor when q.filter ->
        let idle (t : Task.t) = Float.max 0.0 (q.now +. t.Task.comm -. q.cpu_free) in
        let least = List.fold_left (fun a t -> Float.min a (idle t)) Float.infinity fitting in
        List.filter (fun t -> idle t <= Float.min least floor +. 1e-12) fitting
    | _ -> fitting
  in
  Reference.Dyn.select ~min_idle_filter:q.filter q.crit ~cpu_free:q.cpu_free ~now:q.now
    fitting

(* The index paths the model test must reach, counted in [cases]. *)
let index_cases =
  [|
    "rebuild into an empty index";
    "rebuild over live tasks";
    "rebuild over dormant tasks";
    "re-add of a removed task";
    "arrival of a reserved task";
  |]

(* The static order of a model run: none, Johnson's, or a rank by
   [id mod 16] from this table, ties by id. *)
type static = No_static | Johnson_order | Ranks of int array

let static_print = function
  | No_static -> "no static order"
  | Johnson_order -> "static Johnson"
  | Ranks r ->
      Printf.sprintf "static ranks [%s]"
        (String.concat "; " (Array.to_list (Array.map string_of_int r)))

let static_gen =
  QCheck2.Gen.(
    oneof
      [
        return No_static;
        return Johnson_order;
        map (fun r -> Ranks r) (array_repeat 16 (int_range 0 7));
      ])

(* Runs [ops] on an index and on the model. Besides the live and dormant
   tasks, the model tracks the layout (the tasks present at the last
   rebuild: adding one of them again takes no rebuild) and the pending
   tasks (the others, added since), so that it can count in [cases] the
   index paths the operations took. *)
let index_matches_model cases (static, ops) =
  (* the index's static order, and the model's "comes before" *)
  let static =
    match static with
    | No_static -> None
    | Johnson_order -> Some (Candidates.Johnson, fun a b -> Johnson.compare a b < 0)
    | Ranks r ->
        let rank (t : Task.t) = r.(t.Task.id mod 16) in
        Some
          ( Candidates.Rank rank,
            fun (a : Task.t) (b : Task.t) -> (rank a, a.Task.id) < (rank b, b.Task.id) )
  in
  let idx = Candidates.create ?static:(Option.map fst static) () in
  let live = ref [] and dormant = ref [] and removed = ref [] in
  let laid = ref [] and pending = ref [] in
  let next_absent = ref 1_000_000 in
  let hit case = cases.(case) <- cases.(case) + 1 in
  let rebuild () =
    if !pending <> [] then begin
      let members l = List.exists (fun t -> not (List.memq t !pending)) l in
      if not (members !live || members !dormant) then hit 0;
      if members !live then hit 1;
      if members !dormant then hit 2;
      laid := !live @ !dormant;
      pending := []
    end
  in
  let present () = !live @ !dormant in
  let taken id = List.exists (fun (t : Task.t) -> t.Task.id = id) (present ()) in
  let nth k l = List.nth l (k mod List.length l) in
  let raises msg f =
    match f () with
    | () -> QCheck2.Test.fail_reportf "no exception, expected %s" msg
    | exception Invalid_argument m when m = msg -> ()
  in
  let enter set t =
    if not (List.memq t !laid) then pending := t :: !pending;
    set := t :: !set
  in
  (* The bound a filtered select hands back is the one the two selects it
     replaced found: the unfiltered SCMR winner's idle time against the
     floor, plus 1e-12, or the floor plus 1e-12 when nothing fits. *)
  let probe =
    ref
      {
        crit = Dynamic_rules.SCMR;
        filter = true;
        floor = None;
        used = 0.0;
        kcap = Float.infinity;
        cpu_free = 0.0;
        now = 0.0;
      }
  in
  let check_bound floor =
    let q = !probe and cell = { Candidates.bound = Float.nan } in
    ignore
      (Candidates.select ~idle_floor:floor ~bound:cell idx q.crit ~used:q.used ~kcap:q.kcap
         ~cpu_free:q.cpu_free ~now:q.now);
    let want =
      match model_select !live { q with crit = Dynamic_rules.SCMR; filter = false } with
      | Some lo -> Float.min (Float.max 0.0 (q.now +. lo.Task.comm -. q.cpu_free)) floor +. 1e-12
      | None -> floor +. 1e-12
    in
    if not (Float.equal cell.Candidates.bound want) then
      QCheck2.Test.fail_reportf "%s, floor %g: bound %h, two selects %h" (op_print (Select q))
        floor cell.Candidates.bound want
  in
  let step op =
    (match op with
    | Add batch | Reserve batch ->
        List.iter
          (fun s ->
            let id = ref 0 in
            while taken !id do incr id done;
            let t = Task.make ~id:!id ~comm:s.s_comm ~comp:s.s_comp ~mem:s.s_mem () in
            match op with
            | Add _ ->
                Candidates.add idx t;
                enter live t
            | _ ->
                Candidates.reserve idx t;
                enter dormant t)
          batch
    | Arrive k when !dormant <> [] ->
        let t = nth k !dormant in
        Candidates.add idx t;
        if List.memq t !laid then hit 4;
        dormant := List.filter (fun u -> u != t) !dormant;
        live := t :: !live
    | Readd k when !removed <> [] ->
        let t = nth k !removed in
        if taken t.Task.id then
          raises (Printf.sprintf "Candidates.add: duplicate task id %d" t.Task.id) (fun () ->
              Candidates.add idx t)
        else begin
          Candidates.add idx t;
          if List.memq t !laid then hit 3;
          removed := List.filter (fun u -> u != t) !removed;
          enter live t
        end
    | Add_present k when present () <> [] ->
        let t = nth k (present ()) in
        let copy = Task.make ~id:t.Task.id ~comm:(t.Task.comm +. 1.0) ~comp:t.Task.comp () in
        raises (Printf.sprintf "Candidates.add: duplicate task id %d" t.Task.id) (fun () ->
            Candidates.add idx copy);
        raises (Printf.sprintf "Candidates.reserve: duplicate task id %d" t.Task.id)
          (fun () -> Candidates.reserve idx copy)
    | Remove k when present () <> [] ->
        let t = nth k (present ()) in
        if List.memq t !pending then rebuild ();
        Candidates.remove idx t;
        live := List.filter (fun u -> u != t) !live;
        dormant := List.filter (fun u -> u != t) !dormant;
        removed := t :: !removed
    | Remove_absent ->
        incr next_absent;
        raises (Printf.sprintf "Candidates.remove: unknown task id %d" !next_absent)
          (fun () ->
            Candidates.remove idx (Task.make ~id:!next_absent ~comm:1.0 ~comp:1.0 ()))
    | Select q ->
        rebuild ();
        probe := q;
        let got =
          Candidates.select ~min_idle_filter:q.filter ?idle_floor:q.floor idx q.crit
            ~used:q.used ~kcap:q.kcap ~cpu_free:q.cpu_free ~now:q.now
        and want = model_select !live q in
        if not (Option.equal ( == ) got want) then
          QCheck2.Test.fail_reportf "%s: index chose %s, model %s" (op_print op)
            (match got with Some t -> string_of_int t.Task.id | None -> "none")
            (match want with Some t -> string_of_int t.Task.id | None -> "none")
    | Arrive _ | Readd _ | Add_present _ | Remove _ -> ());
    (match static with
    | None -> ()
    | Some (_, before) ->
        (* the head is read from the layout: a rebuild when a task is
           pending and one is live *)
        if !live <> [] then rebuild ();
        let want =
          List.fold_left
            (fun m t -> match m with Some u when not (before t u) -> m | _ -> Some t)
            None !live
        in
        let got = Candidates.static_head idx in
        if not (Option.equal ( == ) got want) then
          QCheck2.Test.fail_reportf "after %s: static head %s, model %s" (op_print op)
            (match got with Some t -> string_of_int t.Task.id | None -> "none")
            (match want with Some t -> string_of_int t.Task.id | None -> "none"));
    (* after every operation that leaves no task pending, so that the
       probe lays nothing out and the pending paths stay reachable; under
       the last query's floor (or 1) and under none *)
    if !pending = [] then
      List.iter check_bound [ Option.value !probe.floor ~default:1.0; Float.infinity ];
    let top = List.fold_left (fun a (t : Task.t) -> max a t.Task.id) 0 (present ()) in
    Candidates.size idx = List.length !live
    && List.for_all
         (fun id ->
           Option.equal ( == ) (Candidates.find idx id)
             (List.find_opt (fun (t : Task.t) -> t.Task.id = id) (present ())))
         (List.init (top + 2) Fun.id)
  in
  let ok = List.for_all step ops in
  Candidates.release idx;
  ok

let candidates_model =
  let cases = Array.make (Array.length index_cases) 0 in
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"Candidates = task-list model, every index path"
         ~print:(fun (static, ops) ->
           String.concat "\n" (static_print static :: List.map op_print ops))
         QCheck2.Gen.(pair static_gen (list_size (int_range 1 80) op_gen))
         (index_matches_model cases))
  in
  ( name,
    speed,
    fun () ->
      run ();
      Array.iteri
        (fun case what -> Alcotest.(check bool) (what ^ " reached") true (cases.(case) > 0))
        index_cases )

(* [Candidates] keeps, per domain, the last layout it built and the
   arrays of the last index handed back. Neither may show: runs
   interleaved over several instances on one domain, and a pooled fleet
   over a shuffled trace set, equal fresh runs, each on a new domain. *)
let fresh f = Domain.join (Domain.spawn f)

(* A domain that never released an index has no spare arrays: an index
   created there must answer a select before its first task, as any
   empty index does (no task, and the bound of the floor alone). *)
let fresh_index_select () =
  let cell = { Candidates.bound = Float.nan } in
  let got =
    fresh (fun () ->
        let idx = Candidates.create () in
        Candidates.select ~idle_floor:2.0 ~bound:cell idx Dynamic_rules.SCMR ~used:0.0
          ~kcap:10.0 ~cpu_free:0.0 ~now:0.0)
  in
  Alcotest.(check bool) "no task" true (Option.is_none got);
  Alcotest.(check (float 0.0)) "the floor's bound" (2.0 +. 1e-12) cell.Candidates.bound

let indexed_runs =
  List.map (fun c i -> Dynamic_rules.run c i) Dynamic_rules.all
  @ List.map (fun r i -> Corrected_rules.run r i) Corrected_rules.all
  @ List.map
      (fun (policy, c) i -> fst (Cached_rules.run ~policy c i))
      [ (Residency.Lru, Dynamic_rules.SCMR); (Residency.Min_refetch, Dynamic_rules.MAMR) ]

let memo_invisible =
  let runs = Array.of_list indexed_runs in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20
       ~name:"Candidates memo and spare arrays: interleaved runs = fresh runs"
       ~print:(fun (is, picks) ->
         Printf.sprintf "%s\npicks [%s]"
           (String.concat "\n" (List.map Generators.instance_print is))
           (String.concat "; " (List.map (fun (i, r) -> Printf.sprintf "(%d, %d)" i r) picks)))
       QCheck2.Gen.(
         pair
           (list_size (int_range 2 4) (Generators.tiled_instance_gen ~max_size:40 ()))
           (list_size (int_range 4 16) (pair nat nat)))
       (fun (instances, picks) ->
         let instances = Array.of_list instances in
         let pick (i, r) = (instances.(i mod Array.length instances), runs.(r mod Array.length runs)) in
         List.for_all
           (fun p ->
             let i, run = pick p in
             same_schedule (run i) (fresh (fun () -> run i)))
           picks))

let fleet_invisible () =
  let traces =
    Dt_chem.Workload.hf_trace_set ~seed:11 ~cluster:Dt_ga.Cluster.cascade ~nbf:1500 ()
    |> Dt_trace.Trace.of_task_lists ~prefix:"hf"
  in
  let traces = Array.sub traces 0 12 in
  let rng = Random.State.make [| 21 |] in
  for k = Array.length traces - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let x = traces.(k) in
    traces.(k) <- traces.(j);
    traces.(j) <- x
  done;
  let policy = Dt_trace.Fleet.Portfolio Heuristic.all in
  let pooled =
    Dt_par.Pool.with_pool ~num_domains:1 (fun pool -> Dt_trace.Fleet.run ~pool policy traces)
  in
  Array.iteri
    (fun k (p : Dt_trace.Fleet.process_outcome) ->
      let alone = (fresh (fun () -> Dt_trace.Fleet.run policy [| traces.(k) |])).Dt_trace.Fleet.processes.(0) in
      Alcotest.(check string) "same winner" (Heuristic.name alone.Dt_trace.Fleet.chosen)
        (Heuristic.name p.Dt_trace.Fleet.chosen);
      Alcotest.(check (float 0.0)) "same makespan" alone.Dt_trace.Fleet.makespan p.Dt_trace.Fleet.makespan)
    pooled.Dt_trace.Fleet.processes

let duplicate_order_rejected () =
  let t0 = Task.make ~id:0 ~comm:1.0 ~comp:1.0 ()
  and t0' = Task.make ~id:0 ~comm:2.0 ~comp:1.0 () in
  let i = Instance.make ~capacity:10.0 [ Task.make ~id:0 ~comm:1.0 ~comp:1.0 () ] in
  Alcotest.check_raises "duplicate ids in the override order"
    (Invalid_argument "Candidates.add: duplicate task id 0") (fun () ->
      ignore (Corrected_rules.run ~order:[ t0; t0' ] Corrected_rules.OOSCMR i));
  (* the first repeat in list order is named, as task-by-task adds do *)
  let t id = Task.make ~id ~comm:1.0 ~comp:1.0 () in
  Alcotest.check_raises "first repeated id in list order"
    (Invalid_argument "Candidates.add: duplicate task id 5") (fun () ->
      ignore (Corrected_rules.run ~order:[ t 5; t 3; t 5; t 3 ] Corrected_rules.OOSCMR i))

let duplicate_submit_rejected () =
  let eng = Engine.create ~capacity:10.0 () in
  (match Engine.submit eng ~arrival:0.0 (Task.make ~id:3 ~comm:1.0 ~comp:1.0 ()) with
  | Engine.Accepted -> ()
  | _ -> Alcotest.fail "first submission rejected");
  Alcotest.check_raises "pending id collision"
    (Invalid_argument "Engine.submit: duplicate pending task id 3") (fun () ->
      ignore (Engine.submit eng ~arrival:5.0 (Task.make ~id:3 ~comm:2.0 ~comp:1.0 ())));
  (* the failed submission left the engine untouched; after scheduling,
     the id is free again *)
  ignore (Engine.drain eng);
  Alcotest.(check int) "one task scheduled" 1 (Engine.scheduled eng);
  match Engine.submit eng (Task.make ~id:3 ~comm:1.0 ~comp:1.0 ()) with
  | Engine.Accepted -> ()
  | _ -> Alcotest.fail "id reuse after scheduling rejected"

(* A task that a correction scheduled out of turn, submitted again (the
   same record) with a later arrival, waits for that arrival: the static
   head is read among the arrived tasks only. D holds memory, so C, the
   head, does not fit and A goes out of turn; C follows once D and A are
   done. A then comes back at 1000, E at 0. *)
let resubmitted_task_waits () =
  let task id comm mem = Task.make ~id ~comm ~comp:5.0 ~mem () in
  let d = task 0 1.0 5.0 and c = task 1 2.0 10.0 and a = task 2 3.0 1.0 and e = task 3 4.0 1.0 in
  let policy = Engine.Corrected Corrected_rules.OOSCMR in
  let eng = Engine.create ~policy ~capacity:10.0 ()
  and reference = Reference.Eng.create ~policy ~capacity:10.0 () in
  let submit task arrival =
    ignore (Engine.submit eng ~arrival task);
    Reference.Eng.submit reference ~arrival task
  in
  List.iter (fun t -> submit t 0.0) [ d; c; a ];
  Alcotest.(check bool) "first drain = reference" true
    (same_schedule (drained eng) (Reference.Eng.drain reference));
  submit a 1000.0;
  submit e 0.0;
  Alcotest.(check bool) "second drain = reference" true
    (same_schedule (drained eng) (Reference.Eng.drain reference));
  Alcotest.(check int) "each submission scheduled once" 5 (Engine.scheduled eng)

(* Entries on small grids, so that [s_comm] and [s_comp] often tie and
   ids repeat (the Engine reuses ids across drains). *)
let entries_gen =
  QCheck2.Gen.(
    list_size (int_range 0 80)
      (triple (int_range 0 15) (int_range 0 6) (int_range 0 6)))

let schedule_make_prop =
  let print = QCheck2.Print.(list (triple int int int)) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print
       ~name:"Schedule.make = frozen Array.of_list + Array.sort, entry for entry (==)"
       entries_gen
       (fun specs ->
         let given =
           List.map
             (fun (id, c, p) ->
               {
                 Schedule.task = Task.make ~id ~comm:1.0 ~comp:1.0 ();
                 s_comm = float_of_int c;
                 s_comp = float_of_int p;
               })
             specs
         in
         let ordered = Array.to_list (Reference.Sched.make given) in
         (* the ordered list without the entries that tie with their
            predecessor: strictly increasing *)
         let key (e : Schedule.entry) =
           (e.Schedule.s_comm, e.Schedule.s_comp, e.Schedule.task.Task.id)
         in
         let strict =
           List.rev
             (List.fold_left
                (fun acc e ->
                  match acc with
                  | prev :: _ when key prev = key e -> acc
                  | _ -> e :: acc)
                [] ordered)
         in
         List.for_all
           (fun l ->
             let got = (Schedule.make ~capacity:1.0 l).Schedule.entries
             and want = Reference.Sched.make l in
             Array.length got = Array.length want && Array.for_all2 ( == ) got want)
           [ given; ordered; strict; List.rev ordered ]))

let suite =
  List.concat
    [
      List.concat_map
        (fun c -> [ dynamic_prop c true; dynamic_prop c false ])
        Dynamic_rules.all;
      List.map corrected_prop Corrected_rules.all;
      List.map engine_prop Engine.all_policies;
      [ reversed_replay_prop ];
      List.map corrected_order_prop Corrected_rules.all;
      [ corrected_two_orders_prop ];
      [ dynamic_state_prop; corrected_state_prop ];
      List.map engine_two_batch_prop Engine.all_policies;
      List.map cached_prop Dynamic_rules.all;
      [
        candidates_model;
        Alcotest.test_case "duplicate ids in ?order raise" `Quick duplicate_order_rejected;
        Alcotest.test_case "duplicate pending id raises on submit" `Quick
          duplicate_submit_rejected;
        Alcotest.test_case "a resubmitted task waits for its new arrival" `Quick
          resubmitted_task_waits;
        schedule_make_prop;
        memo_invisible;
        Alcotest.test_case "Candidates memo and spare arrays: pooled fleet = fresh runs" `Quick
          fleet_invisible;
        Alcotest.test_case "select on a fresh domain's first index" `Quick fresh_index_select;
      ];
    ]
