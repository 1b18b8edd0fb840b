type policy =
  | Fixed of Dt_core.Heuristic.t
  | Portfolio of Dt_core.Heuristic.t list

type process_outcome = {
  name : string;
  makespan : float;
  omim : float;
  ratio : float;
  chosen : Dt_core.Heuristic.t;
}

type outcome = {
  processes : process_outcome array;
  application_makespan : float;
  application_lower_bound : float;
  mean_ratio : float;
  worst_ratio : float;
}

type trace_summary = {
  summary_name : string;
  tasks : int;
  comm_volume : float;
  comp_volume : float;
  mem_peak : float;
  mem_volume : float;
}

let summarize trace =
  let fold f init = List.fold_left f init trace.Trace.tasks in
  {
    summary_name = trace.Trace.name;
    tasks = List.length trace.Trace.tasks;
    comm_volume = fold (fun acc (t : Dt_core.Task.t) -> acc +. t.Dt_core.Task.comm) 0.0;
    comp_volume = fold (fun acc (t : Dt_core.Task.t) -> acc +. t.Dt_core.Task.comp) 0.0;
    mem_peak = fold (fun acc (t : Dt_core.Task.t) -> Float.max acc t.Dt_core.Task.mem) 0.0;
    mem_volume = fold (fun acc (t : Dt_core.Task.t) -> acc +. t.Dt_core.Task.mem) 0.0;
  }

let summarize_set traces = Array.map summarize traces

let schedule_process ~capacity_factor policy trace =
  let m_c = Trace.min_capacity trace in
  let instance = Trace.to_instance trace ~capacity:(m_c *. capacity_factor) in
  match policy with
  | Fixed h -> (h, Dt_core.Heuristic.run h instance)
  | Portfolio candidates -> Dt_core.Auto.select ~candidates instance

let run_process ~capacity_factor policy trace =
  let chosen, sched = schedule_process ~capacity_factor policy trace in
  let omim = Dt_core.Johnson.omim trace.Trace.tasks in
  let makespan = Dt_core.Schedule.makespan sched in
  {
    name = trace.Trace.name;
    makespan;
    omim;
    ratio = (if omim > 0.0 then makespan /. omim else 1.0);
    chosen;
  }

let run ?(capacity_factor = 1.5) ?pool policy traces =
  if Array.length traces = 0 then invalid_arg "Fleet.run: empty trace set";
  let processes =
    (* the per-process schedulers are independent (the paper's 150 workers
       never interact): the pool's domains claim traces one at a time, so
       uneven processes balance themselves, and the outcomes come back in
       trace order, bit-identical to the sequential map *)
    match pool with
    | None -> Array.map (run_process ~capacity_factor policy) traces
    | Some pool ->
        Dt_par.Pool.parallel_map pool (run_process ~capacity_factor policy) traces
  in
  let fold f init = Array.fold_left f init processes in
  {
    processes;
    application_makespan = fold (fun acc p -> Float.max acc p.makespan) 0.0;
    application_lower_bound = fold (fun acc p -> Float.max acc p.omim) 0.0;
    mean_ratio =
      fold (fun acc p -> acc +. p.ratio) 0.0 /. float_of_int (Array.length processes);
    worst_ratio = fold (fun acc p -> Float.max acc p.ratio) 0.0;
  }

let speedup_over_submission outcome ~submission =
  submission.application_makespan /. outcome.application_makespan
