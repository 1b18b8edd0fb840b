type criterion = LCMR | SCMR | MAMR

(* Height-balanced trees (Set-style AVL) over the unscheduled tasks, one
   keyed by (comm, id) and one keyed by (mem, id), sharing a node type
   whose subtree aggregates answer the decision-loop queries:

     lo        argmin (comm asc, id asc)      — the SCMR winner
     hi        argmax comm, ties to lower id  — the LCMR winner
     best      argmax (acceleration desc, id asc) — the MAMR winner
     min_mem   smallest memory requirement    — prunes fitting searches

   The fits-now test [used +. mem <= kcap] is monotone in mem, so the
   fitting set is a key prefix of the (mem, id) tree: one descent
   accumulates the aggregates of exactly the fitting tasks, whatever the
   current memory level — no task ever migrates between fits/blocked
   structures as memory fluctuates. *)
type tree =
  | Leaf
  | Node of {
      l : tree;
      task : Task.t;
      acc : float; (* Task.acceleration task, cached *)
      r : tree;
      h : int;
      lo : Task.t;
      hi : Task.t;
      best : Task.t;
      best_acc : float;
      min_mem : float;
    }

let height = function Leaf -> 0 | Node n -> n.h

(* Larger acceleration wins, ties to the smaller id. *)
let better_acc acc_a id_a acc_b id_b =
  let c = Float.compare acc_a acc_b in
  c > 0 || (c = 0 && id_a < id_b)

let pick_lo (a : Task.t) (b : Task.t) =
  let c = Float.compare a.Task.comm b.Task.comm in
  if c < 0 then a else if c > 0 then b else if a.Task.id <= b.Task.id then a else b

let pick_hi (a : Task.t) (b : Task.t) =
  let c = Float.compare a.Task.comm b.Task.comm in
  if c > 0 then a else if c < 0 then b else if a.Task.id <= b.Task.id then a else b

let node l task acc r =
  let lo = ref task and hi = ref task in
  let best = ref task and best_acc = ref acc and min_mem = ref task.Task.mem in
  let absorb = function
    | Leaf -> ()
    | Node n ->
        lo := pick_lo !lo n.lo;
        hi := pick_hi !hi n.hi;
        if better_acc n.best_acc n.best.Task.id !best_acc !best.Task.id then begin
          best := n.best;
          best_acc := n.best_acc
        end;
        if n.min_mem < !min_mem then min_mem := n.min_mem
  in
  absorb l;
  absorb r;
  Node
    {
      l;
      task;
      acc;
      r;
      h = 1 + max (height l) (height r);
      lo = !lo;
      hi = !hi;
      best = !best;
      best_acc = !best_acc;
      min_mem = !min_mem;
    }

let bal l task acc r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Leaf -> assert false
    | Node ln ->
        if height ln.l >= height ln.r then node ln.l ln.task ln.acc (node ln.r task acc r)
        else (
          match ln.r with
          | Leaf -> assert false
          | Node lrn ->
              node (node ln.l ln.task ln.acc lrn.l) lrn.task lrn.acc
                (node lrn.r task acc r))
  else if hr > hl + 2 then
    match r with
    | Leaf -> assert false
    | Node rn ->
        if height rn.r >= height rn.l then node (node l task acc rn.l) rn.task rn.acc rn.r
        else (
          match rn.l with
          | Leaf -> assert false
          | Node rln ->
              node (node l task acc rln.l) rln.task rln.acc
                (node rln.r rn.task rn.acc rn.r))
  else node l task acc r

let kcmp (a : Task.t) (b : Task.t) =
  let c = Float.compare a.Task.comm b.Task.comm in
  if c <> 0 then c else Task.compare_id a b

let mcmp (a : Task.t) (b : Task.t) =
  let c = Float.compare a.Task.mem b.Task.mem in
  if c <> 0 then c else Task.compare_id a b

let rec add_t cmp x xacc = function
  | Leaf -> node Leaf x xacc Leaf
  | Node n ->
      let c = cmp x n.task in
      if c < 0 then bal (add_t cmp x xacc n.l) n.task n.acc n.r
      else if c > 0 then bal n.l n.task n.acc (add_t cmp x xacc n.r)
      else assert false (* ids are unique, so the keys are too *)

let rec min_node = function
  | Leaf -> assert false
  | Node { l = Leaf; task; acc; _ } -> (task, acc)
  | Node { l; _ } -> min_node l

let rec remove_min = function
  | Leaf -> assert false
  | Node { l = Leaf; r; _ } -> r
  | Node n -> bal (remove_min n.l) n.task n.acc n.r

let merge_t l r =
  match (l, r) with
  | Leaf, t | t, Leaf -> t
  | _, _ ->
      let task, acc = min_node r in
      bal l task acc (remove_min r)

let rec remove_t cmp x = function
  | Leaf -> assert false (* membership checked against the id table *)
  | Node n ->
      let c = cmp x n.task in
      if c < 0 then bal (remove_t cmp x n.l) n.task n.acc n.r
      else if c > 0 then bal n.l n.task n.acc (remove_t cmp x n.r)
      else merge_t n.l n.r

(* Aggregates of the fitting prefix of the (mem, id) tree. *)
type agg = { lo : Task.t; hi : Task.t; best : Task.t; best_acc : float }

let combine a b =
  let best, best_acc =
    if better_acc a.best_acc a.best.Task.id b.best_acc b.best.Task.id then
      (a.best, a.best_acc)
    else (b.best, b.best_acc)
  in
  { lo = pick_lo a.lo b.lo; hi = pick_hi a.hi b.hi; best; best_acc }

let combine_opt cur x = match cur with None -> Some x | Some a -> Some (combine a x)

let rec fitting_agg fits t cur =
  match t with
  | Leaf -> cur
  | Node n ->
      if fits n.task.Task.mem then
        (* node fits, hence its whole left subtree (smaller mem) does too *)
        let cur =
          match n.l with
          | Leaf -> cur
          | Node ln ->
              combine_opt cur
                { lo = ln.lo; hi = ln.hi; best = ln.best; best_acc = ln.best_acc }
        in
        let cur =
          combine_opt cur { lo = n.task; hi = n.task; best = n.task; best_acc = n.acc }
        in
        fitting_agg fits n.r cur
      else fitting_agg fits n.l cur

(* The remaining searches run on the (comm, id) tree and are only needed
   when the minimum-idle prefix excludes some fitting task (a "binding"
   filter, see [select]). *)

(* Rightmost fitting task of a subtree; the min_mem aggregate prunes
   fully-unfitting subtrees, so a descent into a child either fails in
   O(1) or is guaranteed to succeed. *)
let rec last_fitting fits t =
  match t with
  | Leaf -> None
  | Node n -> (
      if not (fits n.min_mem) then None
      else
        match last_fitting fits n.r with
        | Some _ as x -> x
        | None -> if fits n.task.Task.mem then Some n.task else last_fitting fits n.l)

(* Rightmost task satisfying the (downward-closed in comm) predicate and
   fitting: if a node passes the predicate, so does its whole left
   subtree. *)
let rec last_eligible p fits t =
  match t with
  | Leaf -> None
  | Node n -> (
      if not (p n.task.Task.comm) then last_eligible p fits n.l
      else
        match last_eligible p fits n.r with
        | Some _ as x -> x
        | None -> if fits n.task.Task.mem then Some n.task else last_fitting fits n.l)

(* Leftmost (smallest-id) fitting task of an exact comm-group. *)
let rec first_in_group comm fits t =
  match t with
  | Leaf -> None
  | Node n -> (
      let c = Float.compare n.task.Task.comm comm in
      if c < 0 then first_in_group comm fits n.r
      else if c > 0 then first_in_group comm fits n.l
      else
        match first_in_group comm fits n.l with
        | Some _ as x -> x
        | None ->
            if fits n.task.Task.mem then Some n.task else first_in_group comm fits n.r)

let merge_best cur task acc =
  match cur with
  | None -> Some (task, acc)
  | Some (bt, ba) ->
      if better_acc acc task.Task.id ba bt.Task.id then Some (task, acc) else cur

(* Best (acceleration desc, id asc) task that satisfies the predicate and
   fits, pruning subtrees that cannot fit or cannot beat the incumbent.
   Exhaustive over the eligible region in the worst case — but the region
   is only searched when the filter is binding, which requires the CPU to
   free up before the longest fitting transfer completes. *)
let rec best_eligible p fits t cur =
  match t with
  | Leaf -> cur
  | Node n ->
      if not (fits n.min_mem) then cur
      else if
        match cur with
        | Some (bt, ba) -> not (better_acc n.best_acc n.best.Task.id ba bt.Task.id)
        | None -> false
      then cur
      else if not (p n.task.Task.comm) then best_eligible p fits n.l cur
      else
        let cur = if fits n.task.Task.mem then merge_best cur n.task n.acc else cur in
        let cur = best_eligible p fits n.l cur in
        best_eligible p fits n.r cur

type t = {
  mutable byc : tree; (* keyed (comm, id) *)
  mutable bym : tree; (* keyed (mem, id) *)
  mutable n : int;
  ids : (int, Task.t) Hashtbl.t;
}

let create () = { byc = Leaf; bym = Leaf; n = 0; ids = Hashtbl.create 64 }
let size t = t.n
let find t id = Hashtbl.find_opt t.ids id

let add t (task : Task.t) =
  if Hashtbl.mem t.ids task.Task.id then
    invalid_arg (Printf.sprintf "Candidates.add: duplicate task id %d" task.Task.id);
  Hashtbl.replace t.ids task.Task.id task;
  let acc = Task.acceleration task in
  t.byc <- add_t kcmp task acc t.byc;
  t.bym <- add_t mcmp task acc t.bym;
  t.n <- t.n + 1

let remove t (task : Task.t) =
  if not (Hashtbl.mem t.ids task.Task.id) then
    invalid_arg (Printf.sprintf "Candidates.remove: unknown task id %d" task.Task.id);
  Hashtbl.remove t.ids task.Task.id;
  t.byc <- remove_t kcmp task t.byc;
  t.bym <- remove_t mcmp task t.bym;
  t.n <- t.n - 1

let select ?(min_idle_filter = true) ?(idle_floor = Float.infinity) t crit ~used ~kcap
    ~cpu_free ~now =
  let fits m = used +. m <= kcap in
  match fitting_agg fits t.bym None with
  | None -> None
  | Some a -> (
      (* the exact expressions of the original list scan, so that the
         1e-12 idle tolerance resolves bit-identically *)
      let m = a.lo in
      let idle c = Float.max 0.0 (now +. c -. cpu_free) in
      let p, binding =
        if not min_idle_filter then ((fun _ -> true), false)
        else
          (* m attains the least idle time of the fitting tasks; the
             floor stands for tasks outside the index *)
          let bound = Float.min (idle m.Task.comm) idle_floor +. 1e-12 in
          let p c = idle c <= bound in
          (* idle is monotone in comm, so if the largest fitting comm is
             eligible then every fitting task is and the filter is a
             no-op; otherwise the eligible set is a strict comm-prefix *)
          (p, not (p a.hi.Task.comm))
      in
      match crit with
      | _ when not (p m.Task.comm) -> None (* the floor excludes every fitting task *)
      | SCMR ->
          (* minimum comm, then minimum id: attains the minimum idle
             time, hence always eligible *)
          Some m
      | LCMR ->
          if not binding then Some a.hi
          else (
            match last_eligible p fits t.byc with
            | None -> assert false (* m itself is eligible and fitting *)
            | Some w -> first_in_group w.Task.comm fits t.byc)
      | MAMR ->
          if not binding then Some a.best
          else Option.map fst (best_eligible p fits t.byc None))
