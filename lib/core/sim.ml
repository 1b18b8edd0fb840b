type state = {
  mutable link_free : float;
  mutable cpu_free : float;
  mutable used : float;
  releases : (float * float) Queue.t;
      (* (computation end, memory) — pushed in computation order, hence in
         nondecreasing time: computations are sequential on the single
         processing unit, so their completion instants are ordered. *)
}

let initial_state () =
  { link_free = 0.0; cpu_free = 0.0; used = 0.0; releases = Queue.create () }

let copy_state st =
  {
    link_free = st.link_free;
    cpu_free = st.cpu_free;
    used = st.used;
    releases = Queue.copy st.releases;
  }

let restore_state ~link_free ~cpu_free ~held =
  let st = initial_state () in
  st.link_free <- link_free;
  st.cpu_free <- cpu_free;
  List.iter
    (fun (t, m) ->
      st.used <- st.used +. m;
      Queue.push (t, m) st.releases)
    (List.sort (fun (a, _) (b, _) -> Float.compare a b) held);
  st

let dump_state st =
  (st.link_free, st.cpu_free, List.of_seq (Queue.to_seq st.releases))

let link_free_time st = st.link_free
let cpu_free_time st = st.cpu_free
let memory_in_use st = st.used

let process_releases_until st time =
  let rec loop () =
    match Queue.peek_opt st.releases with
    | Some (t, m) when t <= time ->
        ignore (Queue.pop st.releases);
        st.used <- st.used -. m;
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let next_release_time st = Option.map fst (Queue.peek_opt st.releases)

let settle st = process_releases_until st st.link_free

let advance_link_to st time = if time > st.link_free then st.link_free <- time

let advance_to_next_release st =
  match Queue.peek_opt st.releases with
  | None -> false
  | Some (t, m) ->
      ignore (Queue.pop st.releases);
      st.used <- st.used -. m;
      if t > st.link_free then st.link_free <- t;
      true

let fits_now st ~capacity m =
  process_releases_until st st.link_free;
  st.used +. m <= capacity *. (1.0 +. 1e-12)

let schedule_task st ~capacity (task : Task.t) =
  if task.Task.mem > capacity *. (1.0 +. 1e-12) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_task: task %d needs %g > capacity %g" task.Task.id
         task.Task.mem capacity);
  process_releases_until st st.link_free;
  let start = ref st.link_free in
  while st.used +. task.Task.mem > capacity *. (1.0 +. 1e-12) do
    match Queue.take_opt st.releases with
    | None -> assert false (* task.mem <= capacity, so memory must free up *)
    | Some (t, m) ->
        st.used <- st.used -. m;
        if t > !start then start := t
  done;
  let s_comm = !start in
  let comm_end = s_comm +. task.Task.comm in
  let s_comp = Float.max comm_end st.cpu_free in
  let comp_end = s_comp +. task.Task.comp in
  st.used <- st.used +. task.Task.mem;
  Queue.push (comp_end, task.Task.mem) st.releases;
  st.link_free <- comm_end;
  st.cpu_free <- comp_end;
  { Schedule.task; s_comm; s_comp }

let run_order ?state ~capacity tasks =
  let st = match state with Some s -> s | None -> initial_state () in
  let rec loop acc = function
    | [] -> Ok (Schedule.make ~capacity (List.rev acc))
    | t :: rest ->
        if t.Task.mem > capacity *. (1.0 +. 1e-12) then Error t
        else loop (schedule_task st ~capacity t :: acc) rest
  in
  loop [] tasks

let run_order_exn ?state ~capacity tasks =
  match run_order ?state ~capacity tasks with
  | Ok s -> s
  | Error t ->
      invalid_arg
        (Printf.sprintf "Sim.run_order_exn: task %d needs %g > capacity %g" t.Task.id
           t.Task.mem capacity)

type dual_error =
  | Too_big of Task.t
  | Deadlock of Task.t

(* Dual-order execution. Computations are scheduled eagerly whenever the
   head of the computation order has its data; the head communication is
   then started at the earliest fitting instant, where "fitting" may only
   rely on releases of already-scheduled computations: any not-yet-scheduled
   computation is blocked behind a communication that comes at or after the
   head, so it cannot release memory before the head starts. *)
let run_two_orders ?state ~capacity ~comm_order comp_order =
  let st = match state with Some s -> s | None -> initial_state () in
  (* Per-task started/start-time records, indexed by task id offset by the
     smallest id in the order (ids are dense in practice — [Instance.make]
     renumbers 0..n-1 — so flat arrays beat hashing on this hot path; the
     offset keeps arbitrary [make_keep_ids] id ranges working). *)
  let lo, hi =
    List.fold_left
      (fun (lo, hi) (t : Task.t) -> (min lo t.Task.id, max hi t.Task.id))
      (max_int, min_int) comm_order
  in
  let slots = if hi >= lo then hi - lo + 1 else 0 in
  let comm_started = Array.make slots false in
  let s_comm_of = Array.make slots 0.0 in
  (* a task outside the comm order maps to no slot and never starts, which
     surfaces as the same deadlock the Hashtbl version reported *)
  let started (t : Task.t) =
    let i = t.Task.id - lo in
    i >= 0 && i < slots && comm_started.(i)
  in
  let entries = ref [] in
  let pending_comm = ref comm_order and pending_comp = ref comp_order in
  let exception Stop of dual_error in
  let schedule_ready_comps () =
    let progress = ref false in
    let rec loop () =
      match !pending_comp with
      | [] -> ()
      | t :: rest ->
          if started t then begin
            let s_comm = s_comm_of.(t.Task.id - lo) in
            let ce = s_comm +. t.Task.comm in
            let s_comp = Float.max ce st.cpu_free in
            let comp_end = s_comp +. t.Task.comp in
            st.cpu_free <- comp_end;
            Queue.push (comp_end, t.Task.mem) st.releases;
            entries := { Schedule.task = t; s_comm; s_comp } :: !entries;
            pending_comp := rest;
            progress := true;
            loop ()
          end
    in
    loop ();
    !progress
  in
  let start_head_comm () =
    match !pending_comm with
    | [] -> false
    | t :: rest ->
        if t.Task.mem > capacity *. (1.0 +. 1e-12) then raise (Stop (Too_big t));
        process_releases_until st st.link_free;
        let start = ref st.link_free in
        let fits = ref (st.used +. t.Task.mem <= capacity *. (1.0 +. 1e-12)) in
        while not !fits do
          match Queue.take_opt st.releases with
          | None -> raise (Stop (Deadlock t))
          | Some (time, m) ->
              st.used <- st.used -. m;
              if time > !start then start := time;
              fits := st.used +. t.Task.mem <= capacity *. (1.0 +. 1e-12)
        done;
        let s_comm = !start in
        st.used <- st.used +. t.Task.mem;
        st.link_free <- s_comm +. t.Task.comm;
        s_comm_of.(t.Task.id - lo) <- s_comm;
        comm_started.(t.Task.id - lo) <- true;
        pending_comm := rest;
        true
  in
  try
    let rec drive () =
      let p1 = schedule_ready_comps () in
      let p2 = start_head_comm () in
      if p1 || p2 then drive ()
      else
        match (!pending_comm, !pending_comp) with
        | [], [] -> Ok (Schedule.make ~capacity (List.rev !entries))
        | _, t :: _ | t :: _, _ -> Error (Deadlock t)
    in
    drive ()
  with Stop e -> Error e

(* ------------------------------------------------------------------ *)
(* Residency-aware (cached) execution: the unit's memory doubles as a
   cache of named shared tiles.  A tile fetched by a task stays resident
   after the task's computation ends; a later task referencing it pays no
   transfer for that share (hit) and no new memory.  Unpinned resident
   tiles are evicted on demand — eviction is free now, the cost is the
   refetch if the tile is needed again, so a cached run can never be
   blocked by cache residue.  With no tile annotations anywhere this
   executor performs exactly the arithmetic of [schedule_task], in the
   same order: bit-identity to the flat model (QCheck-pinned). *)

type cached_event = {
  ev_time : float;  (* computation end *)
  ev_free : float;  (* private memory released *)
  ev_task : int;    (* the task whose input tiles are unpinned *)
}

type cached_state = {
  cbase : state; (* link/cpu clocks + private memory in use; its
                    [releases] queue is unused — [cevents] replaces it,
                    carrying the unpins too *)
  ctasks : Task.t array; (* the run's tasks, named by their index *)
  cres : Residency.t; (* interned over [ctasks] *)
  cevents : cached_event Queue.t; (* pushed in nondecreasing time order *)
}

let cached_state ?policy tasks =
  {
    cbase = initial_state ();
    ctasks = tasks;
    cres = Residency.create ?policy tasks;
    cevents = Queue.create ();
  }

let cached_residency cs = cs.cres
let cached_link_free cs = cs.cbase.link_free
let cached_cpu_free cs = cs.cbase.cpu_free

let apply_cached_event cs ev =
  cs.cbase.used <- cs.cbase.used -. ev.ev_free;
  let refs = Residency.refs cs.cres in
  for j = refs.Residency.first.(ev.ev_task) to refs.Residency.first.(ev.ev_task + 1) - 1 do
    Residency.unpin cs.cres refs.Residency.slot.(j)
  done

let process_cached_until cs time =
  let rec loop () =
    match Queue.peek_opt cs.cevents with
    | Some ev when ev.ev_time <= time ->
        ignore (Queue.pop cs.cevents);
        apply_cached_event cs ev;
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let settle_cached cs = process_cached_until cs cs.cbase.link_free

let cached_advance_to_next_event cs =
  match Queue.take_opt cs.cevents with
  | None -> false
  | Some ev ->
      apply_cached_event cs ev;
      if ev.ev_time > cs.cbase.link_free then cs.cbase.link_free <- ev.ev_time;
      true

(* Memory no eviction can reclaim: private memory in use + pinned tiles.
   The left operand of a decision loop's fit test: a task can start now,
   evicting on demand every unpinned tile it does not read itself, iff
   [unevictable + its own resident unpinned tiles + the memory it still
   has to bring in <= kcap]; with no resident tile, [unevictable + mem]. *)
let cached_unevictable cs = cs.cbase.used +. Residency.pinned_bytes cs.cres

let schedule_task_cached cs ~capacity u =
  let st = cs.cbase and res = cs.cres and task = cs.ctasks.(u) in
  if task.Task.mem > capacity *. (1.0 +. 1e-12) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_task_cached: task %d needs %g > capacity %g"
         task.Task.id task.Task.mem capacity);
  let kcap = capacity *. (1.0 +. 1e-12) in
  process_cached_until cs st.link_free;
  let refs = Residency.refs res in
  let lo = refs.Residency.first.(u) and hi = refs.Residency.first.(u + 1) - 1 in
  (* Pin the tiles that are resident right now, before any eviction below
     could throw them out, summing their shares (and every tile's memory
     share) in tile order; the rest is admitted once the memory fit is
     secured. Waiting only unpins and evicts, so the tiles absent now are
     the ones still absent then, and each of those misses. *)
  let hit_mem = ref 0.0 and tile_mem = ref 0.0 and eff = ref task.Task.comm in
  for j = lo to hi do
    tile_mem := !tile_mem +. refs.Residency.mem.(j);
    if Residency.pins res refs.Residency.slot.(j) >= 0 then begin
      ignore (Residency.touch res j);
      hit_mem := !hit_mem +. refs.Residency.mem.(j);
      eff := !eff -. refs.Residency.comm.(j)
    end
  done;
  let need = task.Task.mem -. !hit_mem in
  let start = ref st.link_free in
  while st.used +. Residency.resident_bytes res +. need > kcap do
    (* evicting an unpinned tile is free; waiting for a release is not *)
    let s = Residency.victim res in
    if s >= 0 then Residency.evict res s
    else
      match Queue.take_opt cs.cevents with
      | None -> assert false (* task.mem <= capacity, so memory must free up *)
      | Some ev ->
          apply_cached_event cs ev;
          if ev.ev_time > !start then start := ev.ev_time
  done;
  for j = lo to hi do
    if Residency.pins res refs.Residency.slot.(j) < 0 then ignore (Residency.touch res j)
  done;
  let eff = if lo > hi then task.Task.comm else Float.max 0.0 !eff in
  let s_comm = !start in
  let comm_end = s_comm +. eff in
  let s_comp = Float.max comm_end st.cpu_free in
  let comp_end = s_comp +. task.Task.comp in
  (* input-tile shares now live in the cache; only the private remainder
     is charged to (and released from) the task itself *)
  let private_mem = task.Task.mem -. !tile_mem in
  st.used <- st.used +. private_mem;
  st.link_free <- comm_end;
  st.cpu_free <- comp_end;
  Queue.push { ev_time = comp_end; ev_free = private_mem; ev_task = u } cs.cevents;
  { Schedule.task = Task.charged task ~comm:eff; s_comm; s_comp }

let run_order_cached ?policy ~capacity tasks =
  (* seeded with the long-lived filler: fresh tasks are young blocks *)
  let order = Array.make (List.length tasks) Task.filler in
  List.iteri (fun u t -> order.(u) <- t) tasks;
  let cs = cached_state ?policy order in
  let rec loop acc u =
    if u = Array.length order then
      Ok (Schedule.make ~capacity (List.rev acc), Residency.stats cs.cres)
    else
      let t = order.(u) in
      if t.Task.mem > capacity *. (1.0 +. 1e-12) then Error t
      else loop (schedule_task_cached cs ~capacity u :: acc) (u + 1)
  in
  loop [] 0
