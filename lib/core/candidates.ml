type criterion = LCMR | SCMR | MAMR
type order = Johnson | Rank of (Task.t -> int)
type bound = { mutable bound : float }

(* An immutable layout and a mutable state (see candidates.mli).

   The layout's slots hold the tasks known at the last rebuild; it keeps
   the slots in (mem, id), (comm, id) and MAMR order, each slot's
   position in each, the keys in order and the ids ascending. An index
   with a static order adds the slots in that order, sorted on the first
   rebuild that needs it and kept with the layout for the next index
   under the same order.

   The state keeps a live, dormant or dead byte per slot and three
   implicit min trees over [leaves] leaves (node k's children are 2k and
   2k + 1, position p is leaf leaves + p), whose nodes hold the least
   value of the live slots below them, [max_int] for none:

     tm  over the (mem, id) order: MAMR ranks. The fitting tasks are a
         prefix of the order, so MAMR's winner is a prefix minimum;
     cm  over the (comm, id) order: (mem, id) positions, so a subtree
         holds a fitting task iff its value is below the fitting prefix's
         length. SCMR's winner is the first fitting position, LCMR's the
         first fitting one of the last fitting position's comm group;
     ca  over the (comm, id) order: MAMR ranks, for the pruned search
         when the min-idle filter binds;
     sh  (with a static order only) over the static order: the positions
         themselves, so that the root is the static head's.

   A task that the layout does not hold waits in [pending] until the next
   [select], [static_head] or [remove] lays out the pending tasks and the
   live and dormant members. *)

let dead = '\000'
let live = '\001'
let dormant = '\002'

type layout = {
  tasks : Task.t array; (* by slot *)
  ids : int array; (* ascending *)
  by_id : int array; (* the slot of ids.(i) *)
  mems : float array; (* by (mem, id) position *)
  comms : float array; (* by (comm, id) position *)
  by_comm : int array; (* the slot at each (comm, id) position *)
  by_mamr : int array; (* the slot of each MAMR rank *)
  mem_pos : int array; (* by slot *)
  comm_pos : int array; (* by slot *)
  mamr : int array; (* by slot: the MAMR rank *)
  leaves : int; (* the least power of two >= max 1 slots *)
  mutable static_sort : (order * int array * int array) option;
      (* the last static order sorted: the slot at each position, and
         each slot's position *)
}

module Ids = Hashtbl.Make (Int)

type t = {
  mutable lay : layout;
  mutable state : Bytes.t; (* by slot *)
  mutable tm : int array;
  mutable cm : int array;
  mutable ca : int array;
  mutable static : order option;
  mutable by_static : int array; (* the slot at each static position *)
  mutable static_pos : int array; (* by slot *)
  mutable sh : int array;
  mutable live : int; (* live tasks, pending ones included *)
  mutable pending : Task.t array; (* not in the layout, in add order *)
  mutable pstate : Bytes.t; (* by pending index *)
  mutable npending : int;
  pids : int Ids.t; (* pending id -> pending index *)
}

let imin (a : int) b = if a <= b then a else b

(* Keys are never NaN (Task.make rejects it), so [<] and [=] order them
   as [Float.compare] does. *)
let[@inline] before (key : float array) (id : int array) a b =
  let x = key.(a) and y = key.(b) in
  x < y || (x = y && id.(a) < id.(b))

(* The slots sorted by (key, id): a bottom-up merge sort. *)
let sorted key id =
  let n = Array.length key in
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) and w = ref 1 in
  while !w < n do
    let a = !src and b = !dst and lo = ref 0 in
    while !lo < n do
      let mid = imin n (!lo + !w) and hi = imin n (!lo + (2 * !w)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        let left = !j >= hi || (!i < mid && not (before key id a.(!j) a.(!i))) in
        b.(k) <- (if left then a.(!i) else a.(!j));
        if left then incr i else incr j
      done;
      lo := hi
    done;
    src := b;
    dst := a;
    w := 2 * !w
  done;
  !src

let inverse a =
  let inv = Array.make (Array.length a) 0 in
  Array.iteri (fun i s -> inv.(s) <- i) a;
  inv

let layout_of tasks =
  let n = Array.length tasks in
  let id = Array.map (fun (t : Task.t) -> t.Task.id) tasks in
  let comm = Array.map (fun (t : Task.t) -> t.Task.comm) tasks in
  let mem = Array.map (fun (t : Task.t) -> t.Task.mem) tasks in
  let by_comm = sorted comm id and by_mem = sorted mem id in
  let by_mamr = sorted (Array.map (fun t -> -.Task.acceleration t) tasks) id in
  let rec ascending i = i + 1 >= n || (id.(i) < id.(i + 1) && ascending (i + 1)) in
  let by_id = if ascending 0 then Array.init n Fun.id else sorted (Array.map float_of_int id) id in
  let leaves = ref 1 in
  while !leaves < n do
    leaves := 2 * !leaves
  done;
  {
    tasks;
    ids = Array.map (fun s -> id.(s)) by_id;
    by_id;
    mems = Array.map (fun s -> mem.(s)) by_mem;
    comms = Array.map (fun s -> comm.(s)) by_comm;
    by_comm;
    by_mamr;
    mem_pos = inverse by_mem;
    comm_pos = inverse by_comm;
    mamr = inverse by_mamr;
    leaves = !leaves;
    static_sort = None;
  }

let empty = layout_of [||]

(* The slots in the static order, ties by id. Johnson's order
   ({!Johnson.compare}) by keys: the compute-intensive tasks by (comm,
   id), as the layout already holds them, then the others by (-comp, id). *)
let static_slots lay order =
  let id = Array.map (fun (t : Task.t) -> t.Task.id) lay.tasks in
  match order with
  | Rank rank -> sorted (Array.map (fun t -> float_of_int (rank t)) lay.tasks) id
  | Johnson ->
      let others = sorted (Array.map (fun (t : Task.t) -> -.t.Task.comp) lay.tasks) id in
      let slots = Array.make (Array.length id) 0 and k = ref 0 in
      let take ci s =
        if Task.is_compute_intensive lay.tasks.(s) = ci then begin
          slots.(!k) <- s;
          incr k
        end
      in
      Array.iter (take true) lay.by_comm;
      Array.iter (take false) others;
      slots

(* The layout's slots in this static order and their positions, sorted
   once per layout and order: a rank function is the same order only
   physically. The empty layout is shared by every domain, and never
   written. *)
let static_of lay order =
  let same o = match (o, order) with Johnson, Johnson -> true | Rank f, Rank g -> f == g | _ -> false in
  match lay.static_sort with
  | Some (o, slots, pos) when same o -> (slots, pos)
  | _ ->
      let slots = static_slots lay order in
      let pos = inverse slots in
      if Array.length slots > 0 then lay.static_sort <- Some (order, slots, pos);
      (slots, pos)

(* Per domain: the last layout built, which a rebuild over physically the
   same task sequence reuses, and the last index handed back. *)
let memo = Domain.DLS.new_key (fun () -> empty)
let spare = Domain.DLS.new_key (fun () -> None)

let create ?static () =
  match Domain.DLS.get spare with
  | Some t ->
      Domain.DLS.set spare None;
      t.static <- static;
      t
  | None ->
      (* trees for the empty layout's one leaf, so that a select before
         the first rebuild finds no task *)
      {
        lay = empty;
        state = Bytes.empty;
        tm = Array.make 2 max_int;
        cm = Array.make 2 max_int;
        ca = Array.make 2 max_int;
        static;
        by_static = [||];
        static_pos = [||];
        sh = [||];
        live = 0;
        pending = Array.make 16 Task.filler;
        pstate = Bytes.make 16 dead;
        npending = 0;
        pids = Ids.create 16;
      }

let release t =
  t.lay <- empty;
  t.by_static <- [||];
  t.static_pos <- [||];
  t.live <- 0;
  t.npending <- 0;
  Ids.clear t.pids;
  Domain.DLS.set spare (Some t)

let size t = t.live

(* Set position [p] of a min tree and update its root path, up to the
   first node that does not change. *)
let write tree leaves p v =
  let k = ref (leaves + p) in
  tree.(!k) <- v;
  while !k > 1 do
    let up = !k lsr 1 in
    let m = imin tree.(2 * up) tree.((2 * up) + 1) in
    if tree.(up) = m then k := 1
    else begin
      tree.(up) <- m;
      k := up
    end
  done

let set_live t s on =
  let lay = t.lay in
  let rank = if on then lay.mamr.(s) else max_int in
  write t.tm lay.leaves lay.mem_pos.(s) rank;
  write t.cm lay.leaves lay.comm_pos.(s) (if on then lay.mem_pos.(s) else max_int);
  write t.ca lay.leaves lay.comm_pos.(s) rank;
  if Option.is_some t.static then begin
    let p = t.static_pos.(s) in
    write t.sh lay.leaves p (if on then p else max_int)
  end

let init_trees t =
  let lay = t.lay and leaves = t.lay.leaves in
  if Array.length t.tm < 2 * leaves then begin
    t.tm <- Array.make (2 * leaves) max_int;
    t.cm <- Array.make (2 * leaves) max_int;
    t.ca <- Array.make (2 * leaves) max_int
  end;
  let tm = t.tm and cm = t.cm and ca = t.ca in
  Array.fill tm leaves leaves max_int;
  Array.fill cm leaves leaves max_int;
  Array.fill ca leaves leaves max_int;
  for s = 0 to Array.length lay.tasks - 1 do
    if Bytes.get t.state s = live then begin
      tm.(leaves + lay.mem_pos.(s)) <- lay.mamr.(s);
      cm.(leaves + lay.comm_pos.(s)) <- lay.mem_pos.(s);
      ca.(leaves + lay.comm_pos.(s)) <- lay.mamr.(s)
    end
  done;
  for k = leaves - 1 downto 1 do
    tm.(k) <- imin tm.(2 * k) tm.((2 * k) + 1);
    cm.(k) <- imin cm.(2 * k) cm.((2 * k) + 1);
    ca.(k) <- imin ca.(2 * k) ca.((2 * k) + 1)
  done;
  match t.static with
  | None -> ()
  | Some order ->
      let by_static, pos = static_of lay order in
      t.by_static <- by_static;
      t.static_pos <- pos;
      if Array.length t.sh < 2 * leaves then t.sh <- Array.make (2 * leaves) max_int;
      let sh = t.sh in
      Array.fill sh leaves leaves max_int;
      for s = 0 to Array.length lay.tasks - 1 do
        if Bytes.get t.state s = live then sh.(leaves + pos.(s)) <- pos.(s)
      done;
      for k = leaves - 1 downto 1 do
        sh.(k) <- imin sh.(2 * k) sh.((2 * k) + 1)
      done

let push t task st =
  let i = t.npending in
  if i = Array.length t.pending then begin
    t.pending <- Array.append t.pending t.pending;
    t.pstate <- Bytes.cat t.pstate t.pstate
  end;
  t.pending.(i) <- task;
  Bytes.set t.pstate i st;
  t.npending <- i + 1

(* Lay out the pending tasks followed by the live and dormant members,
   reusing the domain's memo when it holds physically this sequence. *)
let rebuild t =
  let lay = t.lay in
  for s = 0 to Array.length lay.tasks - 1 do
    let c = Bytes.get t.state s in
    if c <> dead then push t lay.tasks.(s) c
  done;
  let n = t.npending and m = Domain.DLS.get memo in
  let same = ref (Array.length m.tasks = n) in
  for i = 0 to n - 1 do
    if !same then same := m.tasks.(i) == t.pending.(i)
  done;
  if not !same then Domain.DLS.set memo (layout_of (Array.sub t.pending 0 n));
  t.lay <- Domain.DLS.get memo;
  if Bytes.length t.state < n then t.state <- Bytes.create (Bytes.length t.pstate);
  Bytes.blit t.pstate 0 t.state 0 n;
  t.npending <- 0;
  Ids.clear t.pids;
  init_trees t

(* The layout slot of the task with this id, or -1. *)
let slot_of lay id =
  let a = ref 0 and b = ref (Array.length lay.ids) in
  while !a < !b do
    let mid = (!a + !b) lsr 1 in
    if lay.ids.(mid) < id then a := mid + 1 else b := mid
  done;
  if !a < Array.length lay.ids && lay.ids.(!a) = id then lay.by_id.(!a) else -1

let pending_index t id =
  if t.npending = 0 then -1 else match Ids.find t.pids id with i -> i | exception Not_found -> -1

let find t id =
  let s = slot_of t.lay id in
  if s >= 0 && Bytes.get t.state s <> dead then Some t.lay.tasks.(s)
  else
    let i = pending_index t id in
    if i >= 0 then Some t.pending.(i) else None

let duplicate target id =
  invalid_arg
    (Printf.sprintf "Candidates.%s: duplicate task id %d"
       (if target = live then "add" else "reserve")
       id)

(* Make [task] live or dormant ([target]). *)
let enter t (task : Task.t) target =
  let id = task.Task.id in
  let s = slot_of t.lay id in
  let known = s >= 0 && t.lay.tasks.(s) == task in
  let cur = if s >= 0 then Bytes.get t.state s else dead in
  let i = if cur = dead then pending_index t id else -1 in
  if cur = dormant && known && target = live then begin
    (* the reserved task arrives *)
    Bytes.set t.state s live;
    set_live t s true;
    t.live <- t.live + 1
  end
  else if cur <> dead then duplicate target id
  else if i >= 0 then begin
    (* only a pending reserved task may arrive *)
    if not (target = live && t.pending.(i) == task && Bytes.get t.pstate i = dormant) then
      duplicate target id;
    Bytes.set t.pstate i live;
    t.live <- t.live + 1
  end
  else begin
    if known then begin
      (* a removed task comes back *)
      Bytes.set t.state s target;
      if target = live then set_live t s true
    end
    else begin
      Ids.add t.pids id t.npending;
      push t task target
    end;
    if target = live then t.live <- t.live + 1
  end

let add t task = enter t task live
let reserve t task = enter t task dormant

let load t tasks =
  List.iter
    (fun task ->
      push t task live;
      t.live <- t.live + 1)
    tasks;
  rebuild t;
  (* the slots are the list positions, and the ids' sort is stable: the
     list's first repeated id is its least slot that follows an equal id *)
  let lay = t.lay and first = ref max_int in
  for i = 1 to Array.length lay.ids - 1 do
    if lay.ids.(i) = lay.ids.(i - 1) then first := imin !first lay.by_id.(i)
  done;
  if !first < max_int then duplicate live lay.tasks.(!first).Task.id

let remove t (task : Task.t) =
  let id = task.Task.id in
  if pending_index t id >= 0 then rebuild t;
  let s = slot_of t.lay id in
  if s < 0 || Bytes.get t.state s = dead then
    invalid_arg (Printf.sprintf "Candidates.remove: unknown task id %d" id);
  if Bytes.get t.state s = live then begin
    set_live t s false;
    t.live <- t.live - 1
  end;
  Bytes.set t.state s dead

let static_head t =
  if t.live = 0 || Option.is_none t.static then None
  else begin
    if t.npending > 0 then rebuild t;
    Some t.lay.tasks.(t.by_static.(t.sh.(1)))
  end

(* Searches of cm (and ca) below node k, which covers the (comm, id)
   positions [lo, lo + w). A position is fitting iff its (mem, id)
   position is below [kfit]; a non-live one holds [max_int], so never. *)

(* The last fitting position before [e], or -1. *)
let rec last_fitting cm kfit e k lo w =
  if lo >= e || cm.(k) >= kfit then -1
  else if w = 1 then lo
  else
    let h = w / 2 in
    let x = last_fitting cm kfit e ((2 * k) + 1) (lo + h) h in
    if x >= 0 then x else last_fitting cm kfit e (2 * k) lo h

(* The first fitting position at or after [g], or -1. *)
let rec first_fitting cm kfit g k lo w =
  if lo + w <= g || cm.(k) >= kfit then -1
  else if w = 1 then lo
  else
    let h = w / 2 in
    let x = first_fitting cm kfit g (2 * k) lo h in
    if x >= 0 then x else first_fitting cm kfit g ((2 * k) + 1) (lo + h) h

(* The least MAMR rank of the fitting positions before [e], or [cur] if
   none is less, pruning the subtrees that cannot fit or cannot beat it:
   exhaustive over the eligible region in the worst case. *)
let rec best_fitting cm ca kfit e k lo w cur =
  if lo >= e || cm.(k) >= kfit || ca.(k) >= cur then cur
  else if w = 1 then ca.(k)
  else
    let h = w / 2 in
    best_fitting cm ca kfit e ((2 * k) + 1) (lo + h) h (best_fitting cm ca kfit e (2 * k) lo h cur)

(* The least MAMR rank of tm's first [kfit] positions. *)
let prefix_min tm leaves kfit =
  if kfit = leaves then tm.(1)
  else begin
    (* the prefix starts at leaf 0: only right boundaries contribute *)
    let b = ref (leaves + kfit) and m = ref max_int in
    while !b > 1 do
      if !b land 1 = 1 then m := imin !m tm.(!b - 1);
      b := !b lsr 1
    done;
    !m
  end

(* The slot of the criterion's winner among the fitting tasks at (comm,
   id) positions before [e]; [lo], the first fitting position, is one. *)
let winner t crit kfit lo e =
  let lay = t.lay and leaves = t.lay.leaves in
  match crit with
  | SCMR -> lay.by_comm.(lo)
  | LCMR ->
      (* the largest fitting comm, then its fitting task of least id: the
         first fitting position of its comm group *)
      let w = last_fitting t.cm kfit e 1 0 leaves in
      let a = ref lo and b = ref w in
      while !a < !b do
        let mid = (!a + !b) lsr 1 in
        if lay.comms.(mid) < lay.comms.(w) then a := mid + 1 else b := mid
      done;
      lay.by_comm.(first_fitting t.cm kfit !a 1 0 leaves)
  | MAMR ->
      if first_fitting t.cm kfit e 1 0 leaves < 0 then
        (* every fitting task is before e *)
        lay.by_mamr.(prefix_min t.tm leaves kfit)
      else lay.by_mamr.(best_fitting t.cm t.ca kfit e 1 0 leaves max_int)

let[@inline] idle ~now ~cpu_free c = Float.max 0.0 (now +. c -. cpu_free)

let select ?(min_idle_filter = true) ?(idle_floor = Float.infinity) ?bound t crit ~used ~kcap
    ~cpu_free ~now =
  if t.npending > 0 then rebuild t;
  let lay = t.lay in
  let n = Array.length lay.tasks in
  (* the fitting prefix: used +. mem <= kcap is monotone in mem *)
  let a = ref 0 and b = ref n in
  while !a < !b do
    let mid = (!a + !b) lsr 1 in
    if used +. lay.mems.(mid) <= kcap then a := mid + 1 else b := mid
  done;
  let kfit = !a in
  let lo = first_fitting t.cm kfit 0 1 0 lay.leaves in
  if lo < 0 then begin
    (match bound with Some c when min_idle_filter -> c.bound <- idle_floor +. 1e-12 | _ -> ());
    None
  end
  else if not min_idle_filter then Some lay.tasks.(winner t crit kfit lo n)
  else
    (* the exact expressions of the original list scan, so that the
       1e-12 idle tolerance resolves bit-identically; lo attains the least
       idle time of the fitting tasks, the floor stands for tasks outside
       the index *)
    let least_idle = idle ~now ~cpu_free lay.comms.(lo) in
    let limit = Float.min least_idle idle_floor +. 1e-12 in
    (match bound with Some c -> c.bound <- limit | None -> ());
    if not (least_idle <= limit) then None (* the floor excludes every fitting task *)
    else begin
      (* idle is monotone in comm: the eligible tasks are a (comm, id)
         prefix, of which lo is a member *)
      let a = ref (lo + 1) and b = ref n in
      while !a < !b do
        let mid = (!a + !b) lsr 1 in
        if idle ~now ~cpu_free lay.comms.(mid) <= limit then a := mid + 1 else b := mid
      done;
      Some lay.tasks.(winner t crit kfit lo !a)
    end
