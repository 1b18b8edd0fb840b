(* The tile residency layer and the evict-aware executor: cache
   semantics, eviction policies, and the two pinned
   guarantees — bit-identity to the flat executor on annotation-free
   instances, and never losing to the no-sharing baseline when the
   baseline's own order is replayed under the cache. Plus the
   numeric-validation regressions of this PR (inf acceptance). *)

open Dt_core

let check_float = Alcotest.(check (float 1e-12))

(* ------------------------- residency unit ------------------------- *)

let ref_ ?(comm = 1.0) ?(mem = 1.0) tile = { Task.tile; t_comm = comm; t_mem = mem }

(* A residency set over one task per reference: task [j] reads ref [j]'s
   tile alone, so ref [j] is task [j]'s only ref. *)
let cache ?policy refs =
  Residency.create ?policy
    (Array.of_list
       (List.mapi
          (fun id (r : Task.tile_ref) ->
            Task.make ~id ~comm:r.Task.t_comm ~comp:1.0 ~mem:r.Task.t_mem ~tiles:[ r ] ())
          refs))

(* Ref [j]'s slot, and a slot's tile id. *)
let slot r j = (Residency.refs r).Residency.slot.(j)
let tile r s = (Residency.refs r).Residency.tile.(s)

let victim r =
  let s = Residency.victim r in
  if s < 0 then None else Some (tile r s)

let touch_lifecycle () =
  let r = cache [ ref_ 1; ref_ 1 ] in
  Alcotest.(check int) "one slot per tile" (slot r 0) (slot r 1);
  Alcotest.(check bool) "miss first" true (Residency.touch r 0 = `Miss);
  Alcotest.(check bool) "hit second" true (Residency.touch r 1 = `Hit);
  Alcotest.(check int) "two pins" 2 (Residency.pins r (slot r 0));
  check_float "resident" 1.0 (Residency.resident_bytes r);
  check_float "pinned" 1.0 (Residency.pinned_bytes r);
  Residency.unpin r (slot r 0);
  check_float "still pinned" 1.0 (Residency.pinned_bytes r);
  Residency.unpin r (slot r 1);
  check_float "unpinned" 0.0 (Residency.pinned_bytes r);
  let s = Residency.stats r in
  Alcotest.(check int) "hits" 1 s.Residency.hits;
  Alcotest.(check int) "misses" 1 s.Residency.misses

let unpin_errors () =
  let r = cache [ ref_ 9; ref_ 3 ] in
  Alcotest.(check int) "not resident" (-1) (Residency.pins r (slot r 0));
  Alcotest.check_raises "absent" (Invalid_argument "Residency.unpin: tile 9 not resident")
    (fun () -> Residency.unpin r (slot r 0));
  Alcotest.check_raises "evict absent" (Invalid_argument "Residency.evict: tile 9 not resident")
    (fun () -> Residency.evict r (slot r 0));
  ignore (Residency.touch r 1);
  Residency.unpin r (slot r 1);
  Alcotest.check_raises "not pinned" (Invalid_argument "Residency.unpin: tile 3 not pinned")
    (fun () -> Residency.unpin r (slot r 1))

let eviction_policies () =
  (* tile 1: old, expensive; tile 2: middle, cheap; tile 3: recent; ref
     3 reads tile 2 again *)
  let refs = [ ref_ ~comm:5.0 1; ref_ ~comm:1.0 2; ref_ ~comm:3.0 3; ref_ ~comm:1.0 2 ] in
  let fill r =
    List.iter
      (fun j ->
        ignore (Residency.touch r j);
        Residency.unpin r (slot r j))
      [ 0; 1; 2 ]
  in
  let lru = cache ~policy:Residency.Lru refs in
  fill lru;
  Alcotest.(check (option int)) "lru evicts oldest" (Some 1) (victim lru);
  let mr = cache ~policy:Residency.Min_refetch refs in
  fill mr;
  Alcotest.(check (option int)) "min-refetch evicts cheapest" (Some 2) (victim mr);
  (* pinning protects a tile from eviction *)
  ignore (Residency.touch mr 3);
  Alcotest.(check (option int)) "pinned tile skipped" (Some 3) (victim mr);
  Alcotest.check_raises "evict pinned" (Invalid_argument "Residency.evict: tile 2 is pinned")
    (fun () -> Residency.evict mr (slot mr 3))

(* The stamp heap behind [victim] against the fold it replaced (frozen,
   with its id-level API, as [Reference.Res]): random interleavings of
   touches, unpins and evictions, applied to both, must leave the same
   victim, pin counts and statistics after every step. The set serves
   two tasks per pool tile, one per refetch cost. Tile ids are sparse
   (k lsl 20, so they would share one bucket under an identity hash)
   and refetch costs take two values, so min-refetch breaks most choices
   by recency. An unpin names the k-th pinned tile, as the frozen set
   sees them; an evict takes the victim. *)
type res_op =
  | Touch of int * float
  | Unpin of int
  | Evict

let pool_size = 12
let pool_tile k = k lsl 20

(* one memory share per tile, as [touch] requires *)
let pool_ref k comm = ref_ ~comm ~mem:(float_of_int (1 + (k mod 3))) (pool_tile k)

(* Task [2k] reads pool tile [k] at refetch cost 1, task [2k + 1] at 2. *)
let pool_refs =
  List.init (2 * pool_size) (fun u -> pool_ref (u / 2) (if u mod 2 = 0 then 1.0 else 2.0))

let res_op_gen =
  let open QCheck2.Gen in
  let k = int_bound (pool_size - 1) and comm = oneofl [ 1.0; 2.0 ] in
  frequency
    [
      (4, map2 (fun k c -> Touch (k, c)) k comm);
      (4, map (fun i -> Unpin i) nat);
      (1, return Evict);
    ]

let res_op_print = function
  | Touch (k, c) -> Printf.sprintf "touch %d (comm %g)" (pool_tile k) c
  | Unpin i -> Printf.sprintf "unpin #%d" i
  | Evict -> "evict the victim"

let prop_evict_candidate =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"evict_candidate = frozen fold after every step, both policies"
       ~print:(fun ops -> String.concat "; " (List.map res_op_print ops))
       QCheck2.Gen.(list_size (int_range 1 150) res_op_gen)
       (fun ops ->
         List.for_all
           (fun policy ->
             let r = cache ~policy pool_refs and f = Reference.Res.create ~policy () in
             let step op =
               match op with
               | Touch (k, c) ->
                   Residency.touch r ((2 * k) + if c = 1.0 then 0 else 1)
                   = Reference.Res.touch f (pool_ref k c)
               | Unpin i -> (
                   match
                     List.filter
                       (fun k -> Reference.Res.pin_count f (pool_tile k) > 0)
                       (List.init pool_size Fun.id)
                   with
                   | [] -> true
                   | ks ->
                       let k = List.nth ks (i mod List.length ks) in
                       Residency.unpin r (slot r (2 * k));
                       Reference.Res.unpin f (pool_tile k);
                       true)
               | Evict ->
                   let s = Residency.victim r in
                   if s >= 0 then begin
                     Residency.evict r s;
                     Reference.Res.evict f (tile r s)
                   end;
                   true
             in
             let pins_agree k =
               let t = pool_tile k in
               Residency.pins r (slot r (2 * k))
               = if Reference.Res.is_resident f t then Reference.Res.pin_count f t else -1
             in
             List.for_all
               (fun op ->
                 step op
                 && victim r = Reference.Res.evict_candidate f
                 && List.for_all pins_agree (List.init pool_size Fun.id)
                 && Residency.stats r = Reference.Res.stats f)
               ops)
           Residency.all_policies))

(* The ref table reproduces every task's tile list, on instances whose
   tile ids differ only in their high bits: task by task and in tile
   order, each ref's tile id through its slot and its shares bit for
   bit; slots handed out 0, 1, 2, ... in the order the tasks first name
   the tiles; and every tile absent. The pool's comm and mem shares are
   equal, so the comm shares are halved to tell the two apart. *)
let prop_ref_table =
  Generators.prop_test ~name:"ref table = each task's tiles in order (spread ids)"
    (Generators.tiled_instance_gen ~max_size:20 ~spread:true ())
    (fun instance ->
      let halve (t : Task.t) =
        let half (r : Task.tile_ref) = { r with Task.t_comm = r.Task.t_comm /. 2.0 } in
        Task.make ~id:t.Task.id ~comm:t.Task.comm ~comp:t.Task.comp ~mem:t.Task.mem
          ~tiles:(List.map half t.Task.tiles) ()
      in
      let tasks = Array.map halve instance.Instance.tasks in
      let r = Residency.create tasks in
      let refs = Residency.refs r in
      let first = refs.Residency.first and seen = Hashtbl.create 16 in
      let bits = Int64.bits_of_float in
      let ref_ok j (tr : Task.tile_ref) =
        let s = refs.Residency.slot.(j) in
        let expected =
          match Hashtbl.find_opt seen tr.Task.tile with
          | Some s -> s
          | None ->
              let s = Hashtbl.length seen in
              Hashtbl.add seen tr.Task.tile s;
              s
        in
        s = expected
        && refs.Residency.tile.(s) = tr.Task.tile
        && bits refs.Residency.comm.(j) = bits tr.Task.t_comm
        && bits refs.Residency.mem.(j) = bits tr.Task.t_mem
        && Residency.pins r s = -1
      in
      Array.length first = Array.length tasks + 1
      && first.(0) = 0
      && List.for_all
           (fun u ->
             let tiles = tasks.(u).Task.tiles in
             first.(u + 1) - first.(u) = List.length tiles
             && List.for_all2 ref_ok (List.init (List.length tiles) (fun k -> first.(u) + k)) tiles)
           (List.init (Array.length tasks) Fun.id)
      && Array.length refs.Residency.tile = Hashtbl.length seen)

(* ------------------------ cached executor ------------------------- *)

let shared = ref_ ~comm:1.0 ~mem:1.0 7

let hit_skips_share () =
  (* two tasks reading the same tile: the second pays comm - 1 *)
  let t0 = Task.make ~id:0 ~comm:2.0 ~comp:1.0 ~mem:2.0 ~tiles:[ shared ] () in
  let t1 = Task.make ~id:1 ~comm:3.0 ~comp:1.0 ~mem:3.0 ~tiles:[ shared ] () in
  match Sim.run_order_cached ~capacity:10.0 [ t0; t1 ] with
  | Error t -> Alcotest.failf "rejected task %d" t.Task.id
  | Ok (sched, stats) ->
      (* t0: comm 0-2 (miss), comp 2-3; t1: comm 2-4 (3 - 1 hit), comp 4-5 *)
      check_float "makespan" 5.0 (Schedule.makespan sched);
      Alcotest.(check int) "one hit" 1 stats.Residency.hits;
      Alcotest.(check int) "one miss" 1 stats.Residency.misses;
      check_float "saved share" 1.0 stats.Residency.hit_comm;
      let e1 = List.nth (Schedule.entries sched) 1 in
      check_float "effective comm recorded" 2.0 e1.Schedule.task.Task.comm

(* Two tasks of mem 2 share a 1-byte tile under capacity 3: the second
   starts once the first's transfer ends, the tile resident once. Valid,
   yet [Schedule.check] counts the tile in both entries' [mem]; the
   cached validator counts it once. *)
let shared_tile_counted_once () =
  let tile = ref_ ~comm:0.5 ~mem:1.0 0 in
  let t0 = Task.make ~id:0 ~comm:1.0 ~comp:1.0 ~mem:2.0 ~tiles:[ tile ] () in
  let t1 = Task.make ~id:1 ~comm:1.0 ~comp:1.0 ~mem:2.0 ~tiles:[ tile ] () in
  match Sim.run_order_cached ~capacity:3.0 [ t0; t1 ] with
  | Error t -> Alcotest.failf "rejected task %d" t.Task.id
  | Ok (sched, _) ->
      check_float "t1 starts at t0's transfer end" 1.0
        (List.nth (Schedule.entries sched) 1).Schedule.s_comm;
      Alcotest.(check string) "Schedule.check counts the tile twice"
        "memory exceeded at time 1 (usage 4)"
        (match Schedule.check sched with
        | Ok () -> "ok"
        | Error v -> Schedule.violation_to_string v);
      Alcotest.(check bool) "the cached validator accepts" true
        (Generators.check_cached_feasible (Instance.make_keep_ids ~capacity:3.0 [ t0; t1 ]) sched)

let eviction_under_pressure () =
  (* capacity fits one task + one cached tile; scheduling a task with a
     different tile must evict the stale one instead of waiting *)
  let a = ref_ ~comm:1.0 ~mem:2.0 1 and b = ref_ ~comm:1.0 ~mem:2.0 2 in
  let t0 = Task.make ~id:0 ~comm:2.0 ~comp:1.0 ~mem:3.0 ~tiles:[ a ] () in
  let t1 = Task.make ~id:1 ~comm:2.0 ~comp:1.0 ~mem:3.0 ~tiles:[ b ] () in
  let t2 = Task.make ~id:2 ~comm:2.0 ~comp:1.0 ~mem:3.0 ~tiles:[ a ] () in
  match Sim.run_order_cached ~capacity:4.0 [ t0; t1; t2 ] with
  | Error t -> Alcotest.failf "rejected task %d" t.Task.id
  | Ok (sched, stats) ->
      Alcotest.(check int) "a was evicted for b, then refetched" 3 stats.Residency.misses;
      Alcotest.(check int) "at least one eviction" 2 stats.Residency.evictions;
      (* same timing as the flat run: eviction is free *)
      let flat = Sim.run_order_exn ~capacity:4.0 (List.map Task.flatten [ t0; t1; t2 ]) in
      check_float "eviction never delays" (Schedule.makespan flat) (Schedule.makespan sched)

(* Two references to tile 0 that disagree on its memory share: memory
   cannot add up, so both entry points must reject the instance with an
   Invalid_argument naming the tile, not fail an internal assertion. *)
let inconsistent_tile_sizes () =
  let t0 =
    Task.make ~id:0 ~comm:1.25 ~comp:1.0 ~mem:2.25 ~tiles:[ ref_ ~comm:0.75 ~mem:1.25 0 ] ()
  in
  let t1 = Task.make ~id:1 ~comm:1.5 ~comp:5.25 ~mem:3.0 ~tiles:[ ref_ ~comm:0.0 0 ] () in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: inconsistent tile sizes accepted" what
    | exception Invalid_argument msg ->
        let prefix = "Residency.touch: tile 0 is resident with " in
        Alcotest.(check string)
          (what ^ " names the tile") prefix
          (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  in
  rejects "run_order_cached" (fun () -> Sim.run_order_cached ~capacity:3.0 [ t0; t1 ]);
  let instance = Instance.make_keep_ids ~capacity:3.0 [ t0; t1 ] in
  List.iter
    (fun c -> rejects (Dynamic_rules.name c) (fun () -> Cached_rules.run c instance))
    Dynamic_rules.all

(* --------------------- degenerate bit-identity -------------------- *)

let schedule_bit_equal a b =
  let ea = Schedule.entries a and eb = Schedule.entries b in
  List.length ea = List.length eb
  && List.for_all2
       (fun (x : Schedule.entry) (y : Schedule.entry) ->
         Task.equal x.Schedule.task y.Schedule.task
         && x.Schedule.s_comm = y.Schedule.s_comm
         && x.Schedule.s_comp = y.Schedule.s_comp)
       ea eb

let prop_degenerate_run_order =
  Generators.prop_test ~name:"no tiles: run_order_cached = run_order (bit-identical)"
    (Generators.instance_gen ~max_size:10 ())
    (fun instance ->
      let capacity = instance.Instance.capacity in
      let tasks = Instance.task_list instance in
      let flat = Sim.run_order_exn ~capacity tasks in
      match Sim.run_order_cached ~capacity tasks with
      | Error t -> QCheck2.Test.fail_reportf "cached rejected task %d" t.Task.id
      | Ok (cached, stats) ->
          stats.Residency.hits = 0 && stats.Residency.misses = 0
          && schedule_bit_equal flat cached
          && Generators.check_cached_feasible instance cached)

let prop_degenerate_rules =
  Generators.prop_test ~name:"no tiles: Cached_rules = Dynamic_rules (all criteria)"
    (Generators.instance_gen ~max_size:8 ())
    (fun instance ->
      List.for_all
        (fun criterion ->
          let flat = Dynamic_rules.run criterion instance in
          let cached, _ = Cached_rules.run criterion instance in
          schedule_bit_equal flat cached)
        Dynamic_rules.all)

(* ---------------------- cached never worse ------------------------ *)

let prop_replay_never_worse =
  Generators.prop_test ~name:"replayed baseline order under cache: makespan <="
    (Generators.tiled_instance_gen ~max_size:10 ())
    (fun instance ->
      let capacity = instance.Instance.capacity in
      let baseline = Dynamic_rules.run Dynamic_rules.SCMR instance in
      let order =
        List.map (fun (e : Schedule.entry) -> e.Schedule.task) (Schedule.entries baseline)
      in
      List.for_all
        (fun policy ->
          match Sim.run_order_cached ~policy ~capacity order with
          | Error t -> QCheck2.Test.fail_reportf "cached rejected task %d" t.Task.id
          | Ok (cached, _) ->
              Generators.check_cached_feasible instance cached
              && Schedule.makespan cached <= Schedule.makespan baseline)
        Residency.all_policies)

(* Tile ids are names: the executor interns them into dense slots, so
   spreading every id (a strictly increasing map, so that ties by tile id
   fall the same way) changes no entry and no statistic. *)
let prop_spread_ids =
  Generators.prop_test ~name:"run_order_cached: spread tile ids = dense ids (bit-identical)"
    (Generators.tiled_instance_gen ~max_size:10 ~spread:false ())
    (fun instance ->
      let capacity = instance.Instance.capacity in
      let tasks = Instance.task_list instance in
      let spread = List.map Generators.spread_tiles tasks in
      List.for_all
        (fun policy ->
          let run = Sim.run_order_cached ~policy ~capacity in
          match (run tasks, run spread) with
          | Ok (dense, dense_stats), Ok (sparse, sparse_stats) ->
              schedule_bit_equal dense sparse && dense_stats = sparse_stats
          | Error t, _ | _, Error t ->
              QCheck2.Test.fail_reportf "cached rejected task %d" t.Task.id)
        Residency.all_policies)

(* ---------------- validation regressions (inf bug) ---------------- *)

let rejects_non_finite () =
  Alcotest.check_raises "inf comm" (Invalid_argument "Task.make: non-finite field")
    (fun () -> ignore (Task.make ~id:0 ~comm:infinity ~comp:1.0 ()));
  Alcotest.check_raises "inf mem" (Invalid_argument "Task.make: non-finite field")
    (fun () -> ignore (Task.make ~id:0 ~comm:1.0 ~comp:1.0 ~mem:infinity ()));
  Alcotest.check_raises "inf tile share"
    (Invalid_argument "Task.make: non-finite input tile field") (fun () ->
      ignore
        (Task.make ~id:0 ~comm:1.0 ~comp:1.0 ~tiles:[ ref_ ~comm:infinity 1 ] ()));
  Alcotest.check_raises "inf engine capacity"
    (Invalid_argument "Engine.create: capacity must be finite") (fun () ->
      ignore (Dt_runtime.Engine.create ~capacity:infinity ()));
  (* the pre-existing guards keep their messages *)
  Alcotest.check_raises "nan comm" (Invalid_argument "Task.make: NaN field") (fun () ->
      ignore (Task.make ~id:0 ~comm:Float.nan ~comp:1.0 ()));
  Alcotest.check_raises "non-positive engine capacity"
    (Invalid_argument "Engine.create: capacity must be positive") (fun () ->
      ignore (Dt_runtime.Engine.create ~capacity:0.0 ()))

let rejects_bad_shares () =
  Alcotest.check_raises "comm share overflow"
    (Invalid_argument "Task.make: tile communication shares exceed comm") (fun () ->
      ignore (Task.make ~id:0 ~comm:1.0 ~comp:1.0 ~mem:5.0 ~tiles:[ ref_ ~comm:2.0 1 ] ()));
  Alcotest.check_raises "mem share overflow"
    (Invalid_argument "Task.make: tile memory shares exceed mem") (fun () ->
      ignore
        (Task.make ~id:0 ~comm:4.0 ~comp:1.0 ~mem:1.0 ~tiles:[ ref_ ~mem:2.0 1 ] ()));
  Alcotest.check_raises "duplicate tile id"
    (Invalid_argument "Task.make: duplicate input tile id 1") (fun () ->
      ignore
        (Task.make ~id:0 ~comm:4.0 ~comp:1.0 ~mem:4.0 ~tiles:[ ref_ 1; ref_ 1 ] ()))

(* [Task.make] names the first repeated tile id in list order, after the
   fields of the refs before it: pairwise on a short list, through a
   table on a long one. *)
let first_duplicate_named () =
  let make tiles = ignore (Task.make ~id:0 ~comm:1.0 ~comp:1.0 ~tiles ()) in
  let refs ids = List.map (fun t -> ref_ ~comm:0.0 ~mem:0.0 t) ids in
  let bad = { Task.tile = 5; t_comm = -1.0; t_mem = 0.0 } in
  List.iter
    (fun (what, head) ->
      Alcotest.check_raises (what ^ ": first repeat")
        (Invalid_argument "Task.make: duplicate input tile id 5") (fun () ->
          make (refs (head @ [ 5; 3; 5; 3 ])));
      Alcotest.check_raises (what ^ ": a field error before the repeat")
        (Invalid_argument "Task.make: negative input tile field") (fun () ->
          make (refs (head @ [ 5; 3 ]) @ [ bad ]));
      make (refs (head @ [ 5; 3 ])))
    [ ("short", []); ("long", [ 10; 11; 12; 13; 14; 15; 16 ]) ]

let suite =
  [
    Alcotest.test_case "touch/pin lifecycle" `Quick touch_lifecycle;
    Alcotest.test_case "unpin errors" `Quick unpin_errors;
    Alcotest.test_case "eviction policies" `Quick eviction_policies;
    prop_evict_candidate;
    prop_ref_table;
    Alcotest.test_case "hit skips transfer share" `Quick hit_skips_share;
    Alcotest.test_case "cached validator counts a shared tile once" `Quick
      shared_tile_counted_once;
    Alcotest.test_case "eviction under memory pressure" `Quick eviction_under_pressure;
    Alcotest.test_case "rejects non-finite fields" `Quick rejects_non_finite;
    Alcotest.test_case "rejects bad tile shares" `Quick rejects_bad_shares;
    Alcotest.test_case "inconsistent tile sizes raise, not crash" `Quick
      inconsistent_tile_sizes;
    prop_degenerate_run_order;
    prop_degenerate_rules;
    prop_replay_never_worse;
    prop_spread_ids;
    Alcotest.test_case "duplicate tile ids: the first repeat is named" `Quick
      first_duplicate_named;
  ]
