(* Evict-aware variants of the dynamic selection rules: the same greedy
   decision loop as [Greedy], but every decision is taken on the
   *effective* communication time — the task's [comm] minus the shares
   of its tiles currently resident in the unit's memory — and the memory
   fit allows on-demand eviction of unpinned tiles.

   A run reads the residency set's ref table ([Residency.refs]: per
   task its input tiles' slots and shares in flat arrays, in tile order,
   interned once when the executor state is made), and keeps per tile
   slot the tasks reading it. The unscheduled tasks are split in two:

     cold  no input tile resident. Their effective comm is their comm,
           their fit test is [Sim.cached_unevictable + mem <= kcap] and
           their MAMR key is [Task.acceleration], bit for bit, so the
           static [Candidates] index answers for them in O(log n);
     warm  the rest: a slot array, read by one pass per decision that
           reads each input tile's pin count from the residency set's
           slot array ([Residency.pins]) and writes the task's
           effective comm and idle time into float slots, with the float
           expressions and tile order of the frozen list scan's fit test
           and effective comm. The pass makes no table lookup.

   A tile becomes resident only when a task reading it is scheduled, so
   scheduling a task moves the indexed readers of its tiles to the warm
   set. Evictions only cool tasks down: a warm task found with no
   resident input tile goes back to the index. The min-idle filter runs
   over the union with one bound: the warm tasks' least idle time is the
   index's idle floor, and the index's one select per decision hands
   back the bound it applied ([Candidates.select ?bound]), which then
   filters the warm tasks. The winner under (key, id) is unique, so every
   decision is the one a full scan of the remaining tasks takes: bit for
   bit (QCheck-pinned against a frozen list-scan copy), and equal to the
   flat heuristics on instances without tile annotations. *)

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

(* Where a task is. *)
let in_index = '\000'
let in_warm = '\001'
let scheduled = '\002'

(* The least idle time over the fitting warm tasks, set by each pass: an
   all-float record, so that writing it allocates nothing. *)
type pass = { mutable floor : float }

type loop = {
  cs : Sim.cached_state;
  res : Residency.t;
  kcap : float;
  criterion : Dynamic_rules.criterion;
  tasks : Task.t array; (* the instance's; a task is named by its index here *)
  by_id : int array; (* the task indices by ascending id *)
  refs : Residency.refs; (* the tasks' input tiles, by task index *)
  first_reader : int array; (* slot s's readers are [first_reader.(s), first_reader.(s + 1)) *)
  reader : int array; (* task indices, descending within a slot *)
  place : Bytes.t; (* by task: in_index, in_warm or scheduled *)
  cold : Candidates.t; (* no input tile resident *)
  mutable warm : int array; (* slots [0, n_warm): task indices, maybe an input tile resident *)
  mutable n_warm : int;
  mutable eff : float array; (* per warm slot: effective comm *)
  mutable idle : float array; (* per warm slot: idle time, nan when it does not fit *)
  pass : pass;
  bound : Candidates.bound; (* the union's min-idle bound, written by the index's select *)
  some_bound : Candidates.bound option; (* [Some bound], made once *)
}

(* Doubles the slot arrays. *)
let push_warm l u =
  if l.n_warm = Array.length l.warm then begin
    let grow a x =
      let b = Array.make (2 * Array.length a) x in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    l.warm <- grow l.warm 0;
    l.eff <- grow l.eff 0.0;
    l.idle <- grow l.idle 0.0
  end;
  l.warm.(l.n_warm) <- u;
  l.n_warm <- l.n_warm + 1

(* The last slot takes slot [i]'s place. *)
let remove_warm l i =
  let last = l.n_warm - 1 in
  l.warm.(i) <- l.warm.(last);
  l.eff.(i) <- l.eff.(last);
  l.idle.(i) <- l.idle.(last);
  l.n_warm <- last

(* One pass over the warm set: send the tasks that cooled down back to
   the index, and write each other task's effective comm and idle time
   (nan when it does not fit, counting on-demand eviction of every
   unpinned tile it does not read) into its slot. The shares of the
   resident input tiles are summed in tile order, as the list scan's fit
   test and effective comm did. Sets [pass.floor]. *)
let warm_pass l ~used ~cpu_free ~now =
  let res = l.res and floor = ref Float.infinity in
  let { Residency.first; slot; comm; mem; _ } = l.refs in
  let i = ref 0 in
  while !i < l.n_warm do
    let u = l.warm.(!i) in
    let saved = ref 0.0 and resident_mem = ref 0.0 and unpinned_mem = ref 0.0 in
    let any = ref false in
    for j = first.(u) to first.(u + 1) - 1 do
      let pins = Residency.pins res slot.(j) in
      if pins >= 0 then begin
        any := true;
        saved := !saved +. comm.(j);
        resident_mem := !resident_mem +. mem.(j);
        if pins = 0 then unpinned_mem := !unpinned_mem +. mem.(j)
      end
    done;
    let t = l.tasks.(u) in
    if not !any then begin
      Bytes.set l.place u in_index;
      Candidates.add l.cold t;
      remove_warm l !i
    end
    else begin
      let eff = Float.max 0.0 (t.Task.comm -. !saved) in
      l.eff.(!i) <- eff;
      if used +. !unpinned_mem +. (t.Task.mem -. !resident_mem) <= l.kcap then begin
        let idle = Float.max 0.0 (now +. eff -. cpu_free) in
        l.idle.(!i) <- idle;
        floor := Float.min !floor idle
      end
      else l.idle.(!i) <- Float.nan;
      incr i
    end
  done;
  l.pass.floor <- !floor

type choice = Cold of Task.t | Warm of int | Wait

(* One decision: the best fitting task of the union, if any fits. *)
let choose l =
  let cpu_free = Sim.cached_cpu_free l.cs and now = Sim.cached_link_free l.cs in
  let used = Sim.cached_unevictable l.cs in
  warm_pass l ~used ~cpu_free ~now;
  let cold_best =
    Candidates.select ~idle_floor:l.pass.floor ?bound:l.some_bound l.cold l.criterion ~used
      ~kcap:l.kcap ~cpu_free ~now
  in
  (* The warm tasks' idle bound: the union's, 1e-12 above the least of
     the warm floor and the index's least fitting comm's idle time. *)
  let bound = l.bound.Candidates.bound in
  let best = ref (-1) and best_key = ref 0.0 in
  for i = 0 to l.n_warm - 1 do
    (* false on nan: the task does not fit *)
    if l.idle.(i) <= bound then begin
      let t = l.tasks.(l.warm.(i)) in
      let k = key l.criterion l.eff.(i) t in
      if !best < 0 || better k t !best_key l.tasks.(l.warm.(!best)) then begin
        best := i;
        best_key := k
      end
    end
  done;
  match cold_best with
  | None -> if !best < 0 then Wait else Warm !best
  | Some c ->
      (* a cold task's effective comm is its comm *)
      if !best >= 0 && better !best_key l.tasks.(l.warm.(!best)) (key l.criterion c.Task.comm c) c
      then Warm !best
      else Cold c

(* A cold winner's task index: a binary search by id. *)
let index_of l (t : Task.t) =
  let a = ref 0 and b = ref (Array.length l.by_id) in
  while !a < !b do
    let mid = (!a + !b) lsr 1 in
    if l.tasks.(l.by_id.(mid)).Task.id < t.Task.id then a := mid + 1 else b := mid
  done;
  l.by_id.(!a)

(* Scheduling task [u] makes its tiles resident: their indexed readers
   warm up. *)
let warm_readers l u =
  for j = l.refs.Residency.first.(u) to l.refs.Residency.first.(u + 1) - 1 do
    let s = l.refs.Residency.slot.(j) in
    for k = l.first_reader.(s) to l.first_reader.(s + 1) - 1 do
      let v = l.reader.(k) in
      if Bytes.get l.place v = in_index then begin
        Candidates.remove l.cold l.tasks.(v);
        Bytes.set l.place v in_warm;
        push_warm l v
      end
    done
  done

let create ?policy criterion (instance : Instance.t) =
  let tasks = instance.Instance.tasks in
  let n = Array.length tasks in
  let cs = Sim.cached_state ?policy tasks in
  let res = Sim.cached_residency cs in
  let refs = Residency.refs res in
  let ref_slot = refs.Residency.slot in
  let slots = Array.length refs.Residency.tile in
  let first_reader = Array.make (slots + 1) 0 in
  Array.iter (fun s -> first_reader.(s + 1) <- first_reader.(s + 1) + 1) ref_slot;
  for s = 1 to slots do
    first_reader.(s) <- first_reader.(s) + first_reader.(s - 1)
  done;
  let reader = Array.make (Array.length ref_slot) 0 and next = Array.sub first_reader 0 slots in
  for u = n - 1 downto 0 do
    for j = refs.Residency.first.(u) to refs.Residency.first.(u + 1) - 1 do
      let s = ref_slot.(j) in
      reader.(next.(s)) <- u;
      next.(s) <- next.(s) + 1
    done
  done;
  let by_id = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare tasks.(a).Task.id tasks.(b).Task.id) by_id;
  let bound = { Candidates.bound = Float.infinity } in
  let l =
    {
      cs;
      res;
      kcap = instance.Instance.capacity *. (1.0 +. 1e-12);
      criterion;
      tasks;
      by_id;
      refs;
      first_reader;
      reader;
      place = Bytes.make n in_index;
      cold = Candidates.create ();
      warm = Array.make 16 0;
      n_warm = 0;
      eff = Array.make 16 0.0;
      idle = Array.make 16 0.0;
      pass = { floor = Float.infinity };
      bound;
      some_bound = Some bound;
    }
  in
  Candidates.load l.cold (Array.to_list tasks);
  l

let run ?policy criterion instance =
  let capacity = instance.Instance.capacity in
  Array.iter
    (fun t ->
      if t.Task.mem > capacity *. (1.0 +. 1e-12) then
        invalid_arg
          (Printf.sprintf "Cached_rules.run: task %d needs %g > capacity %g" t.Task.id
             t.Task.mem capacity))
    instance.Instance.tasks;
  let l = create ?policy criterion instance in
  let entries = ref [] in
  let take u =
    Bytes.set l.place u scheduled;
    entries := Sim.schedule_task_cached l.cs ~capacity u :: !entries;
    warm_readers l u
  in
  while Candidates.size l.cold > 0 || l.n_warm > 0 do
    Sim.settle_cached l.cs;
    match choose l with
    | Cold t ->
        Candidates.remove l.cold t;
        take (index_of l t)
    | Warm i ->
        let u = l.warm.(i) in
        remove_warm l i;
        take u
    | Wait ->
        (* Nothing fits: wait for the next completion. All tasks fit the
           capacity alone, so an event must exist. *)
        let advanced = Sim.cached_advance_to_next_event l.cs in
        assert advanced
  done;
  Candidates.release l.cold;
  (Schedule.make ~capacity (List.rev !entries), Residency.stats l.res)
