type criterion = LCMR | SCMR | MAMR

(* Two height-balanced trees over the unscheduled tasks, one keyed by
   (comm, id) and one keyed by (mem, id), whose nodes carry subtree
   aggregates answering the decision-loop queries:

     lo     argmin (comm asc, id asc)           — the SCMR winner
     hi     argmax comm, ties to lower id       — the LCMR winner
     best   argmax (acceleration desc, id asc)  — the MAMR winner
     least  smallest memory requirement         — prunes fitting searches

   The fits-now test [used +. mem <= kcap] is monotone in mem, so the
   fitting set is a key prefix of the (mem, id) tree: one descent
   accumulates the aggregates of exactly the fitting tasks, whatever the
   current memory level — no task ever migrates between fits/blocked
   structures as memory fluctuates.

   Layout: each task owns a slot, and each tree a node record per slot
   holding the task's fields and the tree's links, height and
   aggregates, the links and aggregates being slots of the same tree.
   Rotations and deletions relink nodes in place, writing ints only, so
   no operation copies a node and no float is written after a node is
   made; a node is a small block, so growing the index allocates only
   the two slot arrays. Slot 0 is the empty tree, with height 0. An
   added task waits in a pending list until the next select or remove
   flushes it into the trees (see [flush]). *)

let nil = 0

(* A node of one tree. Its task's fields are fixed when the slot is
   filled; the links and aggregates are slots of the same tree. *)
type node = {
  task : Task.t;
  id : int;
  comm : float;
  mem : float;
  acc : float; (* Task.acceleration task *)
  mutable l : int;
  mutable r : int;
  mutable h : int;
  mutable lo : int;
  mutable hi : int;
  mutable best : int;
  mutable least : int;
}

type tree = {
  by_mem : bool; (* keyed (mem, id), else (comm, id) *)
  mutable root : int;
  mutable nodes : node array; (* by slot *)
}

type t = {
  byc : tree; (* keyed (comm, id) *)
  bym : tree; (* keyed (mem, id) *)
  mutable next : int; (* slots [1, next) have been handed out *)
  mutable free : int list; (* released slots *)
  mutable pending : int list; (* added, not yet in the trees *)
  mutable npending : int;
  mutable n : int; (* indexed + pending *)
  ids : (int, int) Hashtbl.t; (* task id -> slot, indexed or pending *)
}

(* Larger acceleration wins, ties to the smaller id. *)
let better ns a b =
  let a = ns.(a) and b = ns.(b) in
  let c = Float.compare a.acc b.acc in
  c > 0 || (c = 0 && a.id < b.id)

(* The three pickers keep the first slot unless the second wins, and
   take [nil] as "no task yet" on the left. *)
let pick_lo ns a b =
  if a = nil then b
  else
    let x = ns.(a) and y = ns.(b) in
    let c = Float.compare x.comm y.comm in
    if c < 0 || (c = 0 && x.id <= y.id) then a else b

let pick_hi ns a b =
  if a = nil then b
  else
    let x = ns.(a) and y = ns.(b) in
    let c = Float.compare x.comm y.comm in
    if c > 0 || (c = 0 && x.id <= y.id) then a else b

let pick_best ns a b = if a = nil || better ns b a then b else a

(* Recompute the height and aggregates of [x] from its children. *)
let refresh ns x =
  let n = ns.(x) in
  let l = ns.(n.l) and r = ns.(n.r) in
  n.h <- 1 + max l.h r.h;
  let lo = ref x and hi = ref x and best = ref x and least = ref x in
  if n.l <> nil then begin
    lo := pick_lo ns !lo l.lo;
    hi := pick_hi ns !hi l.hi;
    best := pick_best ns !best l.best;
    if ns.(l.least).mem < ns.(!least).mem then least := l.least
  end;
  if n.r <> nil then begin
    lo := pick_lo ns !lo r.lo;
    hi := pick_hi ns !hi r.hi;
    best := pick_best ns !best r.best;
    if ns.(r.least).mem < ns.(!least).mem then least := r.least
  end;
  n.lo <- !lo;
  n.hi <- !hi;
  n.best <- !best;
  n.least <- !least

(* Order of the tree's keys: (key, id). *)
let cmp tr a b =
  let a = tr.nodes.(a) and b = tr.nodes.(b) in
  let c = if tr.by_mem then Float.compare a.mem b.mem else Float.compare a.comm b.comm in
  if c <> 0 then c else Int.compare a.id b.id

let rotate_right ns x =
  let n = ns.(x) in
  let y = n.l in
  n.l <- ns.(y).r;
  ns.(y).r <- x;
  refresh ns x;
  refresh ns y;
  y

let rotate_left ns x =
  let n = ns.(x) in
  let y = n.r in
  n.r <- ns.(y).l;
  ns.(y).l <- x;
  refresh ns x;
  refresh ns y;
  y

(* Set-style AVL balance (heights may differ by 2) of a node whose
   subtrees are balanced and differ by at most 3; returns the new
   subtree root. *)
let balance ns x =
  let n = ns.(x) in
  let l = ns.(n.l) and r = ns.(n.r) in
  if l.h > r.h + 2 then begin
    if ns.(l.l).h < ns.(l.r).h then n.l <- rotate_left ns n.l;
    rotate_right ns x
  end
  else if r.h > l.h + 2 then begin
    if ns.(r.r).h < ns.(r.l).h then n.r <- rotate_right ns n.r;
    rotate_left ns x
  end
  else begin
    refresh ns x;
    x
  end

let rec insert tr x i =
  let ns = tr.nodes in
  if i = nil then begin
    refresh ns x;
    x
  end
  else begin
    let n = ns.(i) in
    (* ids are unique, so the keys are too *)
    if cmp tr x i < 0 then n.l <- insert tr x n.l else n.r <- insert tr x n.r;
    balance ns i
  end

let rec leftmost ns i = if ns.(i).l = nil then i else leftmost ns ns.(i).l

let rec remove_min ns i =
  let n = ns.(i) in
  if n.l = nil then n.r
  else begin
    n.l <- remove_min ns n.l;
    balance ns i
  end

(* Unlink slot [x], which the subtree [i] holds. *)
let rec delete tr x i =
  assert (i <> nil) (* membership checked against the id table *);
  let ns = tr.nodes in
  let n = ns.(i) in
  if i = x then begin
    if n.l = nil then n.r
    else if n.r = nil then n.l
    else begin
      let m = leftmost ns n.r in
      let mn = ns.(m) in
      mn.r <- remove_min ns n.r;
      mn.l <- n.l;
      balance ns m
    end
  end
  else begin
    if cmp tr x i < 0 then n.l <- delete tr x n.l else n.r <- delete tr x n.r;
    balance ns i
  end

(* A perfectly balanced tree over the sorted slots [a.(lo) .. a.(hi - 1)]. *)
let rec build ns a lo hi =
  if lo >= hi then nil
  else begin
    let mid = (lo + hi) / 2 in
    let x = a.(mid) in
    let n = ns.(x) in
    n.l <- build ns a lo mid;
    n.r <- build ns a (mid + 1) hi;
    refresh ns x;
    x
  end

let rec fill_inorder ns a k i =
  if i = nil then k
  else begin
    let k = fill_inorder ns a k ns.(i).l in
    a.(k) <- i;
    fill_inorder ns a (k + 1) ns.(i).r
  end

(* Rebuild both trees over the indexed and the pending slots. *)
let rebuild t =
  let a = Array.make t.n nil in
  let k = fill_inorder t.byc.nodes a 0 t.byc.root in
  List.iteri (fun i s -> a.(k + i) <- s) t.pending;
  List.iter
    (fun tr ->
      Array.stable_sort (cmp tr) a;
      tr.root <- build tr.nodes a 0 t.n)
    [ t.byc; t.bym ]

(* Move the pending slots into the trees: a rebuild when they are at
   least as many as the indexed ones, so that its O(n log n) is paid for
   by as many adds; one-by-one inserts otherwise. *)
let flush t =
  if t.npending > 0 then begin
    if 2 * t.npending >= t.n then rebuild t
    else
      List.iter
        (fun x ->
          t.byc.root <- insert t.byc x t.byc.root;
          t.bym.root <- insert t.bym x t.bym.root)
        t.pending;
    t.pending <- [];
    t.npending <- 0
  end

let node (task : Task.t) acc =
  {
    task;
    id = task.Task.id;
    comm = task.Task.comm;
    mem = task.Task.mem;
    acc;
    l = nil;
    r = nil;
    h = 0;
    lo = nil;
    hi = nil;
    best = nil;
    least = nil;
  }

(* The node of the empty tree and of every free slot, shared and never
   written (the empty tree is never refreshed). Being long-lived, it also
   spares the growth of a slot array the minor collection that
   [Array.make] forces when a large array's initial value is young. *)
let empty = node (Task.make ~id:(-1) ~comm:0.0 ~comp:0.0 ()) 0.0

let create () =
  let tree by_mem = { by_mem; root = nil; nodes = Array.make 16 empty } in
  {
    byc = tree false;
    bym = tree true;
    next = 1;
    free = [];
    pending = [];
    npending = 0;
    n = 0;
    ids = Hashtbl.create 64;
  }

let size t = t.n

let find t id =
  match Hashtbl.find t.ids id with
  | s -> Some t.byc.nodes.(s).task
  | exception Not_found -> None

let new_slot t =
  match t.free with
  | s :: rest ->
      t.free <- rest;
      s
  | [] ->
      if t.next = Array.length t.byc.nodes then
        List.iter
          (fun tr ->
            let grown = Array.make (2 * t.next) empty in
            Array.blit tr.nodes 0 grown 0 t.next;
            tr.nodes <- grown)
          [ t.byc; t.bym ];
      t.next <- t.next + 1;
      t.next - 1

let add t (task : Task.t) =
  if Hashtbl.mem t.ids task.Task.id then
    invalid_arg (Printf.sprintf "Candidates.add: duplicate task id %d" task.Task.id);
  let s = new_slot t in
  let acc = Task.acceleration task in
  t.byc.nodes.(s) <- node task acc;
  t.bym.nodes.(s) <- node task acc;
  Hashtbl.add t.ids task.Task.id s;
  t.pending <- s :: t.pending;
  t.npending <- t.npending + 1;
  t.n <- t.n + 1

let remove t (task : Task.t) =
  match Hashtbl.find t.ids task.Task.id with
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Candidates.remove: unknown task id %d" task.Task.id)
  | s ->
      flush t;
      Hashtbl.remove t.ids task.Task.id;
      t.byc.root <- delete t.byc s t.byc.root;
      t.bym.root <- delete t.bym s t.bym.root;
      t.byc.nodes.(s) <- empty;
      t.bym.nodes.(s) <- empty;
      t.free <- s :: t.free;
      t.n <- t.n - 1

(* The remaining searches run on the (comm, id) tree and are only needed
   when the minimum-idle prefix excludes some fitting task (a "binding"
   filter, see [select]). A query carries the fit test and the idle
   bound; [eligible] is downward-closed in comm. The tests take slots,
   not floats, so that no float is boxed on the way down. *)
type query = { used : float; kcap : float; now : float; cpu_free : float; bound : float }

let idle ~now ~cpu_free c = Float.max 0.0 (now +. c -. cpu_free)
let fits ns q s = q.used +. ns.(s).mem <= q.kcap
let eligible ns q s = Float.max 0.0 (q.now +. ns.(s).comm -. q.cpu_free) <= q.bound

(* Rightmost fitting slot of a subtree, or [nil]; the least aggregate
   prunes fully-unfitting subtrees, so a descent into a child either
   fails in O(1) or is guaranteed to succeed. *)
let rec last_fitting ns q i =
  if i = nil || not (fits ns q ns.(i).least) then nil
  else
    let x = last_fitting ns q ns.(i).r in
    if x <> nil then x else if fits ns q i then i else last_fitting ns q ns.(i).l

(* Rightmost eligible fitting slot: if a node is eligible, so is its
   whole left subtree. *)
let rec last_eligible ns q i =
  if i = nil then nil
  else if not (eligible ns q i) then last_eligible ns q ns.(i).l
  else
    let x = last_eligible ns q ns.(i).r in
    if x <> nil then x else if fits ns q i then i else last_fitting ns q ns.(i).l

(* Leftmost (smallest-id) fitting slot whose comm equals [w]'s. *)
let rec first_in_group ns q w i =
  if i = nil then nil
  else
    let o = Float.compare ns.(i).comm ns.(w).comm in
    if o < 0 then first_in_group ns q w ns.(i).r
    else if o > 0 then first_in_group ns q w ns.(i).l
    else
      let x = first_in_group ns q w ns.(i).l in
      if x <> nil then x else if fits ns q i then i else first_in_group ns q w ns.(i).r

(* Best (acceleration desc, id asc) eligible fitting slot, or [cur] when
   none beats it, pruning subtrees that cannot fit or cannot beat the
   incumbent. Exhaustive over the eligible region in the worst case —
   but the region is only searched when the filter is binding, which
   requires the CPU to free up before the longest fitting transfer
   completes. *)
let rec best_eligible ns q i cur =
  if i = nil || not (fits ns q ns.(i).least) then cur
  else if cur <> nil && not (better ns ns.(i).best cur) then cur
  else if not (eligible ns q i) then best_eligible ns q ns.(i).l cur
  else
    let cur = if fits ns q i then pick_best ns cur i else cur in
    let cur = best_eligible ns q ns.(i).l cur in
    best_eligible ns q ns.(i).r cur

let select ?(min_idle_filter = true) ?(idle_floor = Float.infinity) t crit ~used ~kcap
    ~cpu_free ~now =
  flush t;
  (* aggregates of the fitting prefix of the (mem, id) tree *)
  let ns = t.bym.nodes in
  let lo = ref nil and hi = ref nil and best = ref nil in
  let i = ref t.bym.root in
  while !i <> nil do
    let n = ns.(!i) in
    if used +. n.mem <= kcap then begin
      (* n fits, hence its whole left subtree (smaller mem) does too *)
      if n.l <> nil then begin
        let l = ns.(n.l) in
        lo := pick_lo ns !lo l.lo;
        hi := pick_hi ns !hi l.hi;
        best := pick_best ns !best l.best
      end;
      lo := pick_lo ns !lo !i;
      hi := pick_hi ns !hi !i;
      best := pick_best ns !best !i;
      i := n.r
    end
    else i := n.l
  done;
  let lo = !lo in
  let winner = match crit with SCMR -> lo | LCMR -> !hi | MAMR -> !best in
  if lo = nil then None
  else if not min_idle_filter then Some ns.(winner).task
  else
    (* the exact expressions of the original list scan, so that the
       1e-12 idle tolerance resolves bit-identically; lo attains the
       least idle time of the fitting tasks, the floor stands for tasks
       outside the index *)
    let least_idle = idle ~now ~cpu_free ns.(lo).comm in
    let bound = Float.min least_idle idle_floor +. 1e-12 in
    if not (least_idle <= bound) then None (* the floor excludes every fitting task *)
    else if idle ~now ~cpu_free ns.(!hi).comm <= bound then
      (* idle is monotone in comm: the largest fitting comm is eligible,
         hence every fitting task is and the filter is a no-op *)
      Some ns.(winner).task
    else
      (* the eligible set is a strict comm-prefix *)
      let q = { used; kcap; now; cpu_free; bound } in
      let cs = t.byc.nodes in
      match crit with
      | SCMR ->
          (* minimum comm, then minimum id: attains the minimum idle
             time, hence always eligible *)
          Some ns.(lo).task
      | LCMR ->
          let w = last_eligible cs q t.byc.root in
          assert (w <> nil) (* lo itself is eligible and fitting *);
          Some cs.(first_in_group cs q w t.byc.root).task
      | MAMR -> Some cs.(best_eligible cs q t.byc.root nil).task
