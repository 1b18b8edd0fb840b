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
     warm  the rest: a slot array, read by one pass per decision that
           looks each input tile up once ([Residency.pins]) and writes
           the task's effective comm and idle time into float slots,
           with the float expressions and tile order of the frozen list
           scan's fit test and effective comm. The pass allocates
           nothing.

   A tile becomes resident only when a task reading it is scheduled, so
   scheduling a task moves the indexed readers of its tiles to the warm
   set. Evictions only cool tasks down: a warm task found with no
   resident input tile goes back to the index. The min-idle filter runs
   over the union — the warm tasks' least idle time is the index's idle
   floor, and both sides are filtered with one bound — and the winner
   under (key, id) is unique, so every decision is the one a full scan
   of the remaining tasks takes: bit for bit (QCheck-pinned against a
   frozen list-scan copy), and equal to the flat heuristics on
   instances without tile annotations. *)

let name policy criterion =
  Printf.sprintf "%s+%s" (Dynamic_rules.name criterion) (Residency.policy_name policy)

(* The criterion's key on an effective comm: the larger key wins, ties to
   the smaller id. Inlined, so that the warm set's keys are never boxed. *)
let[@inline] key criterion eff (t : Task.t) =
  match criterion with
  | Dynamic_rules.LCMR -> eff
  | Dynamic_rules.SCMR -> -.eff
  | Dynamic_rules.MAMR -> if eff = 0.0 then Float.infinity else t.Task.comp /. eff

let[@inline] better ka a kb b =
  let c = Float.compare ka kb in
  c > 0 || (c = 0 && Task.compare_id a b < 0)

(* The warm pass's accumulators: per task, sums over its resident input
   tiles; per pass, the least idle time. All floats, so updating them
   allocates nothing. *)
type sums = {
  mutable saved : float; (* transfer shares of the resident tiles *)
  mutable resident_mem : float; (* their memory shares *)
  mutable unpinned_mem : float; (* those of the unpinned ones *)
  mutable floor : float; (* least idle time over the fitting warm tasks *)
}

type loop = {
  cs : Sim.cached_state;
  kcap : float;
  criterion : Dynamic_rules.criterion;
  min_idle_filter : bool;
  cold : Candidates.t; (* no input tile resident *)
  mutable warm : Task.t array; (* slots [0, n_warm): maybe an input tile resident *)
  mutable n_warm : int;
  mutable eff : float array; (* per warm slot: effective comm *)
  mutable idle : float array; (* per warm slot: idle time, nan when it does not fit *)
  sums : sums;
  readers : (int, Task.t list) Hashtbl.t; (* tile -> tasks reading it *)
}

(* Doubles the slot arrays; the task array is seeded with [Task.filler],
   never with a young task. *)
let push_warm l t =
  if l.n_warm = Array.length l.warm then begin
    let grow a x =
      let b = Array.make (2 * Array.length a) x in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    l.warm <- grow l.warm Task.filler;
    l.eff <- grow l.eff 0.0;
    l.idle <- grow l.idle 0.0
  end;
  l.warm.(l.n_warm) <- t;
  l.n_warm <- l.n_warm + 1

(* The last slot takes slot [i]'s place. *)
let remove_warm l i =
  let last = l.n_warm - 1 in
  l.warm.(i) <- l.warm.(last);
  l.eff.(i) <- l.eff.(last);
  l.idle.(i) <- l.idle.(last);
  l.warm.(last) <- Task.filler;
  l.n_warm <- last

(* Adds the shares of the resident tiles among [tiles] to [s], in tile
   order (the sums of the cached fit test and of the effective comm,
   accumulated as the list scan did), one table lookup each; true when
   any is resident. *)
let rec add_resident res s any = function
  | [] -> any
  | (r : Task.tile_ref) :: rest ->
      let pins = Residency.pins res r.Task.tile in
      if pins < 0 then add_resident res s any rest
      else begin
        s.saved <- s.saved +. r.Task.t_comm;
        s.resident_mem <- s.resident_mem +. r.Task.t_mem;
        if pins = 0 then s.unpinned_mem <- s.unpinned_mem +. r.Task.t_mem;
        add_resident res s true rest
      end

(* One pass over the warm set: send the tasks that cooled down back to
   the index, and write each other task's effective comm and idle time
   (nan when it does not fit, counting on-demand eviction of every
   unpinned tile it does not read) into its slot. Sets [sums.floor]. *)
let warm_pass l ~cpu_free ~now =
  let res = Sim.cached_residency l.cs and s = l.sums in
  let unevictable = Sim.cached_unevictable l.cs in
  s.floor <- Float.infinity;
  let i = ref 0 in
  while !i < l.n_warm do
    let t = l.warm.(!i) in
    s.saved <- 0.0;
    s.resident_mem <- 0.0;
    s.unpinned_mem <- 0.0;
    if not (add_resident res s false t.Task.tiles) then begin
      Candidates.add l.cold t;
      remove_warm l !i
    end
    else begin
      let eff = Float.max 0.0 (t.Task.comm -. s.saved) in
      l.eff.(!i) <- eff;
      if unevictable +. s.unpinned_mem +. (t.Task.mem -. s.resident_mem) <= l.kcap then begin
        let idle = Float.max 0.0 (now +. eff -. cpu_free) in
        l.idle.(!i) <- idle;
        s.floor <- Float.min s.floor idle
      end
      else l.idle.(!i) <- Float.nan;
      incr i
    end
  done

type choice = Cold of Task.t | Warm of int | Wait

(* One decision: the best fitting task of the union, if any fits. *)
let choose l =
  let cpu_free = Sim.cached_cpu_free l.cs and now = Sim.cached_link_free l.cs in
  warm_pass l ~cpu_free ~now;
  let floor = l.sums.floor in
  let select ~min_idle_filter ?idle_floor crit =
    Candidates.select ~min_idle_filter ?idle_floor l.cold crit
      ~used:(Sim.cached_unevictable l.cs) ~kcap:l.kcap ~cpu_free ~now
  in
  (* The warm tasks' idle bound: with the filter on and a warm task
     fitting, 1e-12 above the least idle time of the union, the index's
     least being attained by its least fitting comm. *)
  let bound =
    if (not l.min_idle_filter) || floor = Float.infinity then Float.infinity
    else
      match select ~min_idle_filter:false Dynamic_rules.SCMR with
      | Some lo -> Float.min (Float.max 0.0 (now +. lo.Task.comm -. cpu_free)) floor +. 1e-12
      | None -> floor +. 1e-12
  in
  let best = ref (-1) and best_key = ref 0.0 in
  for i = 0 to l.n_warm - 1 do
    (* false on nan: the task does not fit *)
    if l.idle.(i) <= bound then begin
      let t = l.warm.(i) in
      let k = key l.criterion l.eff.(i) t in
      if !best < 0 || better k t !best_key l.warm.(!best) then begin
        best := i;
        best_key := k
      end
    end
  done;
  let cold_best =
    (* the index ignores the floor with the filter off *)
    select ~min_idle_filter:l.min_idle_filter ~idle_floor:floor l.criterion
  in
  match cold_best with
  | None -> if !best < 0 then Wait else Warm !best
  | Some c ->
      (* a cold task's effective comm is its comm *)
      if !best >= 0 && better !best_key l.warm.(!best) (key l.criterion c.Task.comm c) c
      then Warm !best
      else Cold c

(* Scheduling [t] makes its tiles resident: their indexed readers warm
   up. *)
let warm_readers l (t : Task.t) =
  List.iter
    (fun (r : Task.tile_ref) ->
      List.iter
        (fun (u : Task.t) ->
          if Option.is_some (Candidates.find l.cold u.Task.id) then begin
            Candidates.remove l.cold u;
            push_warm l u
          end)
        (Option.value ~default:[] (Hashtbl.find_opt l.readers r.Task.tile)))
    t.Task.tiles

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
      warm = Array.make 16 Task.filler;
      n_warm = 0;
      eff = Array.make 16 0.0;
      idle = Array.make 16 0.0;
      sums = { saved = 0.0; resident_mem = 0.0; unpinned_mem = 0.0; floor = 0.0 };
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
  let take t =
    entries := Sim.schedule_task_cached l.cs ~capacity t :: !entries;
    warm_readers l t
  in
  while Candidates.size l.cold > 0 || l.n_warm > 0 do
    Sim.settle_cached l.cs;
    match choose l with
    | Cold t ->
        Candidates.remove l.cold t;
        take t
    | Warm i ->
        let t = l.warm.(i) in
        remove_warm l i;
        take t
    | Wait ->
        (* Nothing fits: wait for the next completion. All tasks fit the
           capacity alone, so an event must exist. *)
        let advanced = Sim.cached_advance_to_next_event l.cs in
        assert advanced
  done;
  Candidates.release l.cold;
  (Schedule.make ~capacity (List.rev !entries), Residency.stats (Sim.cached_residency l.cs))
