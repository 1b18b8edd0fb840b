(* Evict-aware variants of the dynamic selection rules: the same greedy
   decision loop as [Greedy], but every decision is taken on the
   *effective* communication time — the task's [comm] minus the shares
   of its tiles currently resident in the unit's memory — and the memory
   fit allows on-demand eviction of unpinned tiles.

   The unscheduled tasks are split in two:

     cold  no input tile resident. Their effective comm is their comm,
           their fit test is [Sim.cached_unevictable + mem <= kcap] and
           their MAMR key is [Task.acceleration], bit for bit, so the
           static [Candidates] index answers for them in O(log n);
     warm  the rest, usually few: scanned with the cached expressions
           ([Sim.effective_comm], [Sim.cached_fits_now]).

   A tile becomes resident only when a task reading or writing it is
   scheduled (a write-back lands by the next decision's settle, since
   scheduling the writer moves the link past it), so scheduling a task
   moves the indexed readers of its tiles to the warm set. Evictions only
   cool tasks down: a warm task found with no resident input tile goes
   back to the index. The min-idle filter runs over the union — the warm
   tasks' least idle time is the index's idle floor, and both sides are
   filtered with one bound — and the winner under (key, id) is unique,
   so every decision is the one a full scan of the remaining tasks
   takes: bit for bit (QCheck-pinned against a frozen list-scan copy),
   and equal to the flat heuristics on instances without tile
   annotations. *)

let name policy criterion =
  Printf.sprintf "%s+%s" (Dynamic_rules.name criterion) (Residency.policy_name policy)

(* The criterion's key on an effective comm: the larger key wins, ties to
   the smaller id. *)
let key criterion eff (t : Task.t) =
  match criterion with
  | Dynamic_rules.LCMR -> eff
  | Dynamic_rules.SCMR -> -.eff
  | Dynamic_rules.MAMR -> if eff = 0.0 then Float.infinity else t.Task.comp /. eff

let better (a, ka) (b, kb) =
  let c = Float.compare ka kb in
  if c > 0 then true else if c < 0 then false else Task.compare_id a b < 0

type loop = {
  cs : Sim.cached_state;
  kcap : float;
  criterion : Dynamic_rules.criterion;
  min_idle_filter : bool;
  cold : Candidates.t; (* no input tile resident *)
  mutable warm : Task.t list; (* maybe an input tile resident *)
  readers : (int, Task.t list) Hashtbl.t; (* tile -> tasks reading it *)
}

let has_resident_tile res (t : Task.t) =
  List.exists (fun (r : Task.tile_ref) -> Residency.is_resident res r.Task.tile) t.Task.tiles

(* One pass over the warm set: send the tasks that cooled down back to
   the index, and return the fitting ones with their effective comm and
   idle time. *)
let scan_warm l ~cpu_free ~now =
  let res = Sim.cached_residency l.cs in
  let still, fitting =
    List.fold_left
      (fun (still, fitting) t ->
        if not (has_resident_tile res t) then begin
          Candidates.add l.cold t;
          (still, fitting)
        end
        else if Sim.cached_fits_now l.cs ~kcap:l.kcap t then
          let eff = Sim.effective_comm l.cs t in
          (t :: still, (t, eff, Float.max 0.0 (now +. eff -. cpu_free)) :: fitting)
        else (t :: still, fitting))
      ([], []) l.warm
  in
  l.warm <- still;
  fitting

(* One decision: the best fitting task of the union, if any fits. *)
let choose l =
  let cpu_free = Sim.cached_cpu_free l.cs and now = Sim.cached_link_free l.cs in
  let warm = scan_warm l ~cpu_free ~now in
  let select ~min_idle_filter ?idle_floor crit =
    Candidates.select ~min_idle_filter ?idle_floor l.cold crit
      ~used:(Sim.cached_unevictable l.cs) ~kcap:l.kcap ~cpu_free ~now
  in
  let floor = List.fold_left (fun a (_, _, i) -> Float.min a i) Float.infinity warm in
  let eligible =
    if (not l.min_idle_filter) || warm = [] then warm
    else
      (* the least idle time of the union; the index's is attained by
         its least fitting comm *)
      let least =
        match select ~min_idle_filter:false Dynamic_rules.SCMR with
        | Some lo -> Float.min (Float.max 0.0 (now +. lo.Task.comm -. cpu_free)) floor
        | None -> floor
      in
      List.filter (fun (_, _, i) -> i <= least +. 1e-12) warm
  in
  let warm_best =
    List.fold_left
      (fun best (t, eff, _) ->
        let x = (t, key l.criterion eff t) in
        match best with Some b when not (better x b) -> best | _ -> Some x)
      None eligible
  in
  let cold_best =
    (* the index ignores the floor with the filter off *)
    select ~min_idle_filter:l.min_idle_filter ~idle_floor:floor l.criterion
  in
  match (cold_best, warm_best) with
  | None, None -> None
  | None, Some (w, _) -> Some w
  | Some c, None -> Some c
  | Some c, Some ((w, _) as wk) ->
      (* a cold task's effective comm is its comm *)
      Some (if better wk (c, key l.criterion c.Task.comm c) then w else c)

(* Scheduling [t] makes its input tiles resident now and its output tiles
   by the next decision: their indexed readers warm up. *)
let warm_readers l (t : Task.t) =
  let wake (r : Task.tile_ref) =
    List.iter
      (fun (u : Task.t) ->
        if Option.is_some (Candidates.find l.cold u.Task.id) then begin
          Candidates.remove l.cold u;
          l.warm <- u :: l.warm
        end)
      (Option.value ~default:[] (Hashtbl.find_opt l.readers r.Task.tile))
  in
  List.iter wake t.Task.tiles;
  List.iter wake t.Task.writes

let run ?policy ?(min_idle_filter = true) criterion instance =
  let capacity = instance.Instance.capacity in
  let tasks = Instance.task_list instance in
  List.iter
    (fun t ->
      if t.Task.mem > capacity *. (1.0 +. 1e-12) then
        invalid_arg
          (Printf.sprintf "Cached_rules.run: task %d needs %g > capacity %g" t.Task.id
             t.Task.mem capacity))
    tasks;
  let l =
    {
      cs = Sim.cached_state ?policy ();
      kcap = capacity *. (1.0 +. 1e-12);
      criterion;
      min_idle_filter;
      cold = Candidates.create ();
      warm = [];
      readers = Hashtbl.create 64;
    }
  in
  List.iter
    (fun (t : Task.t) ->
      Candidates.add l.cold t;
      List.iter
        (fun (r : Task.tile_ref) ->
          let others = Option.value ~default:[] (Hashtbl.find_opt l.readers r.Task.tile) in
          Hashtbl.replace l.readers r.Task.tile (t :: others))
        t.Task.tiles)
    tasks;
  let entries = ref [] in
  while Candidates.size l.cold > 0 || l.warm <> [] do
    Sim.settle_cached l.cs;
    match choose l with
    | Some t ->
        if Option.is_some (Candidates.find l.cold t.Task.id) then Candidates.remove l.cold t
        else l.warm <- List.filter (fun (u : Task.t) -> u.Task.id <> t.Task.id) l.warm;
        entries := Sim.schedule_task_cached l.cs ~capacity t :: !entries;
        warm_readers l t
    | None ->
        (* Nothing fits: wait for the next completion. All tasks fit the
           capacity alone, so an event must exist. *)
        let advanced = Sim.cached_advance_to_next_event l.cs in
        assert advanced
  done;
  Candidates.release l.cold;
  (Schedule.make ~capacity (List.rev !entries), Residency.stats (Sim.cached_residency l.cs))
