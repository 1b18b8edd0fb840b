type cost_model = {
  alpha : float;
  beta : float;
  gamma : float;
}

let default_cost_model = { alpha = 1.0; beta = 1.0; gamma = 1.0 }

type strategy = No_migration | Greedy | Diffusive

let strategy_name = function
  | No_migration -> "none"
  | Greedy -> "greedy"
  | Diffusive -> "diffusive"

(* Aggregated loads of a placement, kept incrementally updatable so the
   balancers can evaluate candidate moves in O(1) per resource. *)
type loads = {
  comp : float array;             (* per global unit: resident comp volume *)
  comm : float array array;       (* per node, per link: resident comm volume *)
  mem : float array;              (* per node: resident mem peaks *)
  work_scale : float;             (* mean work per unit: memory-penalty scale *)
}

let summary_volume (s : Dt_trace.Fleet.trace_summary) =
  s.Dt_trace.Fleet.comm_volume +. s.Dt_trace.Fleet.comp_volume

let make_loads topo (summaries : Dt_trace.Fleet.trace_summary array) placement =
  let comp = Array.make (Topology.total_units topo) 0.0 in
  let comm =
    Array.init
      (Array.length topo.Topology.nodes)
      (fun n -> Array.make (Array.length topo.Topology.nodes.(n).Topology.links) 0.0)
  in
  let mem = Array.make (Array.length topo.Topology.nodes) 0.0 in
  Array.iteri
    (fun p u ->
      let s = summaries.(p) in
      let n, l = Topology.link_of_unit topo u in
      comp.(u) <- comp.(u) +. s.Dt_trace.Fleet.comp_volume;
      comm.(n).(l) <- comm.(n).(l) +. s.Dt_trace.Fleet.comm_volume;
      mem.(n) <- mem.(n) +. s.Dt_trace.Fleet.mem_peak)
    placement;
  let total_work = Array.fold_left (fun acc s -> acc +. summary_volume s) 0.0 summaries in
  {
    comp;
    comm;
    mem;
    work_scale = total_work /. float_of_int (Topology.total_units topo);
  }

let charge loads topo summaries p u sign =
  let s = summaries.(p) in
  let n, l = Topology.link_of_unit topo u in
  loads.comp.(u) <- loads.comp.(u) +. (sign *. s.Dt_trace.Fleet.comp_volume);
  loads.comm.(n).(l) <- loads.comm.(n).(l) +. (sign *. s.Dt_trace.Fleet.comm_volume);
  loads.mem.(n) <- loads.mem.(n) +. (sign *. s.Dt_trace.Fleet.mem_peak)

(* Move p to unit b, updating the aggregates. *)
let move loads topo summaries placement p b =
  charge loads topo summaries p placement.(p) (-1.0);
  charge loads topo summaries p b 1.0;
  placement.(p) <- b

let unit_cost_of_loads topo cm loads u =
  let n, l = Topology.link_of_unit topo u in
  let bw = Topology.link_bandwidth topo ~node:n ~link:l in
  let cap = Topology.node_mem topo n in
  let overuse = if cap > 0.0 then Float.max 0.0 ((loads.mem.(n) -. cap) /. cap) else 0.0 in
  (cm.alpha *. loads.comp.(u))
  +. (cm.beta *. loads.comm.(n).(l) /. bw)
  +. (cm.gamma *. overuse *. loads.work_scale)

let cost_of_loads topo cm loads =
  let worst = ref 0.0 in
  for u = 0 to Topology.total_units topo - 1 do
    let c = unit_cost_of_loads topo cm loads u in
    if c > !worst then worst := c
  done;
  !worst

let check_args topo summaries placement =
  if Array.length summaries <> Array.length placement then
    invalid_arg
      (Printf.sprintf "Balancer: %d summaries for %d placements" (Array.length summaries)
         (Array.length placement));
  Topology.validate_placement topo placement

let cost topo cm summaries placement =
  check_args topo summaries placement;
  cost_of_loads topo cm (make_loads topo summaries placement)

let fits_node topo (s : Dt_trace.Fleet.trace_summary) n =
  s.Dt_trace.Fleet.mem_peak <= Topology.node_mem topo n *. (1.0 +. 1e-12)

(* The epsilon below which a modeled improvement is considered noise;
   relative to the workload so the balancers terminate on any scale. *)
let improvement_eps loads = 1e-12 *. Float.max 1.0 loads.work_scale

let procs_on placement u =
  let acc = ref [] in
  Array.iteri (fun p v -> if v = u then acc := p :: !acc) placement;
  List.rev !acc

(* Greedy max-transfer-first: take the most loaded unit, try to move its
   largest-volume process to the globally best destination; accept only
   strict modeled improvements; stop when the worst unit cannot shed. *)
let balance_greedy ~max_iters topo cm summaries loads placement =
  let units = Topology.total_units topo in
  let migrations = ref 0 in
  let continue_ = ref true in
  while !continue_ && !migrations < max_iters do
    continue_ := false;
    let current = cost_of_loads topo cm loads in
    let worst_unit = ref 0 and worst_cost = ref neg_infinity in
    for u = 0 to units - 1 do
      let c = unit_cost_of_loads topo cm loads u in
      if c > !worst_cost then begin
        worst_cost := c;
        worst_unit := u
      end
    done;
    let candidates =
      List.sort
        (fun a b ->
          match Float.compare (summary_volume summaries.(b)) (summary_volume summaries.(a)) with
          | 0 -> Int.compare a b
          | c -> c)
        (procs_on placement !worst_unit)
    in
    let eps = improvement_eps loads in
    let try_process p =
      let best = ref None in
      for v = 0 to units - 1 do
        if v <> !worst_unit && fits_node topo summaries.(p) (fst (Topology.link_of_unit topo v))
        then begin
          move loads topo summaries placement p v;
          let c = cost_of_loads topo cm loads in
          move loads topo summaries placement p !worst_unit;
          match !best with
          | Some (_, bc) when bc <= c -> ()
          | _ -> if c < current -. eps then best := Some (v, c)
        end
      done;
      match !best with
      | Some (v, _) ->
          move loads topo summaries placement p v;
          incr migrations;
          continue_ := true;
          true
      | None -> false
    in
    ignore (List.exists try_process candidates)
  done;
  !migrations

(* Diffusive refinement: in passes over the units, an overloaded unit
   sheds its smallest processes to the currently least loaded feasible
   unit, as long as the pair's worse cost strictly improves. *)
let balance_diffusive ~max_iters topo cm summaries loads placement =
  let units = Topology.total_units topo in
  let migrations = ref 0 in
  let moved = ref true in
  while !moved && !migrations < max_iters do
    moved := false;
    let avg =
      let sum = ref 0.0 in
      for u = 0 to units - 1 do
        sum := !sum +. unit_cost_of_loads topo cm loads u
      done;
      !sum /. float_of_int units
    in
    let eps = improvement_eps loads in
    for u = 0 to units - 1 do
      let shedding = ref true in
      while !shedding && !migrations < max_iters do
        shedding := false;
        if unit_cost_of_loads topo cm loads u > avg +. eps then begin
          let smallest =
            List.fold_left
              (fun acc p ->
                match acc with
                | Some q when summary_volume summaries.(p) < summary_volume summaries.(q) ->
                    Some p
                | None -> Some p
                | some -> some)
              None (procs_on placement u)
          in
          match smallest with
          | None -> ()
          | Some p ->
              let target = ref None in
              for v = 0 to units - 1 do
                if v <> u && fits_node topo summaries.(p) (fst (Topology.link_of_unit topo v))
                then
                  let c = unit_cost_of_loads topo cm loads v in
                  match !target with
                  | Some (_, tc) when tc <= c -> ()
                  | _ -> target := Some (v, c)
              done;
              (match !target with
              | None -> ()
              | Some (v, _) ->
                  let before =
                    Float.max
                      (unit_cost_of_loads topo cm loads u)
                      (unit_cost_of_loads topo cm loads v)
                  in
                  (* the destination's link- and node-mates also feel the
                     move, so the pairwise test alone can regress the
                     global maximum; guard it *)
                  let global_before = cost_of_loads topo cm loads in
                  move loads topo summaries placement p v;
                  let after =
                    Float.max
                      (unit_cost_of_loads topo cm loads u)
                      (unit_cost_of_loads topo cm loads v)
                  in
                  let global_after = cost_of_loads topo cm loads in
                  if after < before -. eps && global_after <= global_before +. eps
                  then begin
                    incr migrations;
                    moved := true;
                    shedding := true
                  end
                  else move loads topo summaries placement p u)
        end
      done
    done
  done;
  !migrations

let balance ?max_iters ?(cost_model = default_cost_model) topo summaries strategy placement =
  check_args topo summaries placement;
  let max_iters =
    match max_iters with
    | Some m when m >= 0 -> m
    | Some m -> invalid_arg (Printf.sprintf "Balancer.balance: max_iters %d < 0" m)
    | None -> 4 * Array.length placement
  in
  match strategy with
  | No_migration -> (Array.copy placement, 0)
  | Greedy | Diffusive ->
      let placement = Array.copy placement in
      let loads = make_loads topo summaries placement in
      let migrations =
        match strategy with
        | Greedy -> balance_greedy ~max_iters topo cost_model summaries loads placement
        | Diffusive -> balance_diffusive ~max_iters topo cost_model summaries loads placement
        | No_migration -> assert false
      in
      (placement, migrations)
