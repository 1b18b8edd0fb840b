open Dt_core

type mode = Fcfs | Ps

let mode_name = function Fcfs -> "fcfs" | Ps -> "ps"

let mode_of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "fcfs" -> Some Fcfs
  | "ps" -> Some Ps
  | _ -> None

type result = {
  process_makespans : float array;
  makespan : float;
  link_busy : (int * int * float) array;
  unit_busy : float array;
  node_peak_mem : float array;
}

(* Same memory-fit tolerance as Dt_core.Sim, so the degenerate topology
   admits exactly the same transfers at exactly the same instants. *)
let fits used mem cap = used +. mem <= cap *. (1.0 +. 1e-12)

type proc = {
  order : Task.t array;
  unit_ : int;
  node : int;
  link : int;
  mutable next : int;
  mutable finished_at : float;
}

(* An active processor-sharing flow. [finish] is the projected completion
   under the current rate epoch; the completion event fires at exactly
   that float, so single-flow links complete at [start +. comm] bit for
   bit (no accrual round-off on the completing flow). *)
type flow = {
  fp : int;
  ftask : Task.t;
  mutable remaining : float;
  mutable finish : float;
}

type link_state = {
  bandwidth : float;
  lnode : int;
  llink : int;
  queue : (int * Task.t) Queue.t; (* FCFS: waiting transfers, head in service *)
  mutable serving : bool;
  mutable flows : flow list;      (* PS: admission order *)
  mutable gen : int;
  mutable epoch : float;
  mutable busy : float;
}

type node_state = {
  cap : float;
  mutable used : float;
  mutable peak : float;
  waiters : (int * Task.t) Queue.t; (* node-wide FIFO of memory requests *)
}

type unit_state = {
  mutable free : float;
  mutable running : (int * Task.t) option;
  ready : (float * int * Task.t) Queue.t; (* (comm_end, process, task) *)
  mutable ubusy : float;
}

type event_kind =
  | Request of int
  | Transfer_end of int
  | Flow_check of int * int * int (* node, link, generation *)
  | Comp_end of int

type event = { time : float; seq : int; kind : event_kind }

let run topo ~placement ~mode ~orders =
  let n_proc = Array.length orders in
  if Array.length placement <> n_proc then
    invalid_arg
      (Printf.sprintf "Link_sim.run: %d placements for %d processes"
         (Array.length placement) n_proc);
  Topology.validate_placement topo placement;
  let procs =
    Array.init n_proc (fun p ->
        let u = placement.(p) in
        let node, link = Topology.link_of_unit topo u in
        Array.iter
          (fun (t : Task.t) ->
            if t.Task.mem > Topology.node_mem topo node *. (1.0 +. 1e-12) then
              invalid_arg
                (Printf.sprintf
                   "Link_sim.run: task %d of process %d needs %g > node %d capacity %g"
                   t.Task.id p t.Task.mem node (Topology.node_mem topo node)))
          orders.(p);
        { order = orders.(p); unit_ = u; node; link; next = 0; finished_at = 0.0 })
  in
  let n_nodes = Array.length topo.Topology.nodes in
  let nodes =
    Array.init n_nodes (fun n ->
        { cap = Topology.node_mem topo n; used = 0.0; peak = 0.0; waiters = Queue.create () })
  in
  let links =
    Array.init n_nodes (fun n ->
        Array.init
          (Array.length topo.Topology.nodes.(n).Topology.links)
          (fun l ->
            {
              bandwidth = Topology.link_bandwidth topo ~node:n ~link:l;
              lnode = n;
              llink = l;
              queue = Queue.create ();
              serving = false;
              flows = [];
              gen = 0;
              epoch = 0.0;
              busy = 0.0;
            }))
  in
  let units =
    Array.init (Topology.total_units topo) (fun _ ->
        { free = 0.0; running = None; ready = Queue.create (); ubusy = 0.0 })
  in
  let seq = ref 0 in
  let events =
    Iheap.create ~cmp:(fun a b ->
        match Float.compare a.time b.time with 0 -> Int.compare a.seq b.seq | c -> c)
  in
  let push time kind =
    incr seq;
    Iheap.add events { time; seq = !seq; kind }
  in
  (* --- processor-sharing bookkeeping --------------------------------- *)
  let ps_accrue ls now =
    (match ls.flows with
    | [] -> ()
    | flows ->
        let dt = now -. ls.epoch in
        if dt > 0.0 then begin
          ls.busy <- ls.busy +. dt;
          let rate = ls.bandwidth /. float_of_int (List.length flows) in
          List.iter (fun f -> f.remaining <- Float.max 0.0 (f.remaining -. (rate *. dt))) flows
        end);
    ls.epoch <- now
  in
  let ps_rearm ls now =
    ls.gen <- ls.gen + 1;
    match ls.flows with
    | [] -> ()
    | flows ->
        let rate = ls.bandwidth /. float_of_int (List.length flows) in
        List.iter (fun f -> f.finish <- now +. (f.remaining /. rate)) flows;
        let next = List.fold_left (fun acc f -> Float.min acc f.finish) infinity flows in
        push next (Flow_check (ls.lnode, ls.llink, ls.gen))
  in
  (* --- computations --------------------------------------------------- *)
  let maybe_start_comp u =
    let us = units.(u) in
    if us.running = None && not (Queue.is_empty us.ready) then begin
      let comm_end, p, task = Queue.pop us.ready in
      let s_comp = Float.max comm_end us.free in
      let comp_end = s_comp +. task.Task.comp in
      us.free <- comp_end;
      us.running <- Some (p, task);
      us.ubusy <- us.ubusy +. task.Task.comp;
      push comp_end (Comp_end u)
    end
  in
  let data_arrived p task comm_end =
    let u = procs.(p).unit_ in
    Queue.push (comm_end, p, task) units.(u).ready;
    maybe_start_comp u
  in
  (* --- transfers ------------------------------------------------------ *)
  let start_transfer p (task : Task.t) now =
    let ls = links.(procs.(p).node).(procs.(p).link) in
    match mode with
    | Fcfs ->
        let duration = task.Task.comm /. ls.bandwidth in
        ls.busy <- ls.busy +. duration;
        push (now +. duration) (Transfer_end p)
    | Ps ->
        ps_accrue ls now;
        ls.flows <- ls.flows @ [ { fp = p; ftask = task; remaining = task.Task.comm; finish = infinity } ];
        ps_rearm ls now
  in
  let request_mem p task =
    Queue.push (p, task) nodes.(procs.(p).node).waiters
  in
  let drain_mem n now =
    let ns = nodes.(n) in
    let rec loop () =
      match Queue.peek_opt ns.waiters with
      | Some (p, task) when fits ns.used task.Task.mem ns.cap ->
          ignore (Queue.pop ns.waiters);
          ns.used <- ns.used +. task.Task.mem;
          if ns.used > ns.peak then ns.peak <- ns.used;
          start_transfer p task now;
          loop ()
      | Some _ | None -> ()
    in
    loop ()
  in
  let try_serve ls now =
    if (not ls.serving) && not (Queue.is_empty ls.queue) then begin
      ls.serving <- true;
      let p, task = Queue.peek ls.queue in
      request_mem p task;
      drain_mem ls.lnode now
    end
  in
  let handle_request p now =
    let pr = procs.(p) in
    if pr.next < Array.length pr.order then begin
      let task = pr.order.(pr.next) in
      pr.next <- pr.next + 1;
      match mode with
      | Fcfs ->
          let ls = links.(pr.node).(pr.link) in
          Queue.push (p, task) ls.queue;
          try_serve ls now
      | Ps ->
          request_mem p task;
          drain_mem pr.node now
    end
  in
  let handle_transfer_end p now =
    let pr = procs.(p) in
    let ls = links.(pr.node).(pr.link) in
    let p', task = Queue.pop ls.queue in
    assert (p' = p);
    ls.serving <- false;
    data_arrived p task now;
    push now (Request p);
    try_serve ls now
  in
  let handle_flow_check n l gen now =
    let ls = links.(n).(l) in
    if gen = ls.gen then begin
      ps_accrue ls now;
      let completed, active = List.partition (fun f -> f.finish <= now) ls.flows in
      ls.flows <- active;
      List.iter
        (fun f ->
          data_arrived f.fp f.ftask f.finish;
          push now (Request f.fp))
        completed;
      ps_rearm ls now
    end
  in
  let handle_comp_end u now =
    let us = units.(u) in
    match us.running with
    | None -> assert false
    | Some (p, task) ->
        us.running <- None;
        let pr = procs.(p) in
        pr.finished_at <- Float.max pr.finished_at now;
        let ns = nodes.(pr.node) in
        ns.used <- ns.used -. task.Task.mem;
        drain_mem pr.node now;
        maybe_start_comp u
  in
  for p = 0 to n_proc - 1 do
    push 0.0 (Request p)
  done;
  let rec loop () =
    match Iheap.pop events with
    | None -> ()
    | Some { time; kind; _ } ->
        (match kind with
        | Request p -> handle_request p time
        | Transfer_end p -> handle_transfer_end p time
        | Flow_check (n, l, gen) -> handle_flow_check n l gen time
        | Comp_end u -> handle_comp_end u time);
        loop ()
  in
  loop ();
  Array.iteri
    (fun p pr ->
      if pr.next < Array.length pr.order then
        failwith (Printf.sprintf "Link_sim.run: process %d stalled at task %d" p pr.next))
    procs;
  let link_busy =
    Array.of_list
      (List.concat_map
         (fun n ->
           Array.to_list (Array.map (fun ls -> (ls.lnode, ls.llink, ls.busy)) links.(n)))
         (List.init n_nodes Fun.id))
  in
  {
    process_makespans = Array.map (fun pr -> pr.finished_at) procs;
    makespan = Array.fold_left (fun acc pr -> Float.max acc pr.finished_at) 0.0 procs;
    link_busy;
    unit_busy = Array.map (fun us -> us.ubusy) units;
    node_peak_mem = Array.map (fun ns -> ns.peak) nodes;
  }

let utilisation r =
  Array.map
    (fun (n, l, busy) -> (n, l, if r.makespan > 0.0 then busy /. r.makespan else 0.0))
    r.link_busy
