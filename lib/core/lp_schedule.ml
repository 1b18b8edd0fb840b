type boundary = {
  link_free : float;
  cpu_free : float;
  held : (float * float) list;
}

let initial_boundary = { link_free = 0.0; cpu_free = 0.0; held = [] }

(* Variable layout for a chunk of k tasks and nres residual tasks:
     0                     l   (chunk makespan)
     1 .. k                s_i  (communication starts)
     1+k .. 2k             s'_i (computation starts)
     off_a + pair(p,q)     a_pq for p < q: 1 iff comm p precedes comm q
     off_b + pair(p,q)     b_pq for p < q: 1 iff comp p precedes comp q
     off_c + p*k + q       c_pq (p <> q): 1 iff comp p ends before comm q starts
     off_d + q*nres + r    d_qr: 1 iff residual r releases before comm q starts
   The paper's orientation of a/b/c is symmetric; only the memory constraint
   couples them, and it is expressed below in this orientation. *)
type layout = {
  k : int;
  nres : int;
  off_a : int;
  off_b : int;
  off_c : int;
  off_d : int;
  num_vars : int;
}

let layout ~k ~nres =
  let npairs = k * (k - 1) / 2 in
  let off_a = 1 + (2 * k) in
  let off_b = off_a + npairs in
  let off_c = off_b + npairs in
  let off_d = off_c + (k * k) in
  { k; nres; off_a; off_b; off_c; off_d; num_vars = off_d + (k * nres) }

let pair_index k p q =
  (* index of (p, q) with p < q in the row-major strict upper triangle *)
  assert (p < q && q < k);
  (p * ((2 * k) - p - 1) / 2) + (q - p - 1)

let var_l = 0
let var_s _ i = 1 + i
let var_s' ly i = 1 + ly.k + i
let var_a ly p q = ly.off_a + pair_index ly.k p q
let var_b ly p q = ly.off_b + pair_index ly.k p q
let var_c ly p q = ly.off_c + (p * ly.k) + q
let var_d ly q r = ly.off_d + (q * ly.nres) + r

(* A(p, q) ("comm p before comm q") as a sparse affine form:
   the stored variable when p < q, else 1 - a_qp. *)
let a_form ly p q = if p < q then ([ (var_a ly p q, 1.0) ], 0.0) else ([ (var_a ly q p, -1.0) ], 1.0)
let b_form ly p q = if p < q then ([ (var_b ly p q, 1.0) ], 0.0) else ([ (var_b ly q p, -1.0) ], 1.0)

(* The MILP is built in normalised units — times divided by the planning
   horizon, memory divided by the capacity — so every coefficient is O(1)
   and the simplex stays numerically healthy. The decoder scales the
   start times back. *)
let build_problem ~boundary ~capacity tasks =
  let arr = Array.of_list tasks in
  let k = Array.length arr in
  let held = List.filter (fun (_, m) -> m > 0.0) boundary.held in
  let res = Array.of_list held in
  let nres = Array.length res in
  let ly = layout ~k ~nres in
  let horizon =
    let work = Array.fold_left (fun acc t -> acc +. t.Task.comm +. t.Task.comp) 0.0 arr in
    let latest_res = Array.fold_left (fun acc (t, _) -> Float.max acc t) 0.0 res in
    Float.max 1e-30 (Float.max (Float.max boundary.link_free boundary.cpu_free) latest_res +. work)
  in
  let cm i = arr.(i).Task.comm /. horizon
  and cp i = arr.(i).Task.comp /. horizon
  and mc i = arr.(i).Task.mem /. capacity in
  let boundary =
    {
      link_free = boundary.link_free /. horizon;
      cpu_free = boundary.cpu_free /. horizon;
      held = List.map (fun (t, m) -> (t /. horizon, m /. capacity)) boundary.held;
    }
  in
  let capacity = 1.0 in
  let res = Array.of_list (List.filter (fun (_, m) -> m > 0.0) boundary.held) in
  let big = 1.0 +. 1e-6 in
  let cs = ref [] in
  let le coeffs rhs = cs := { Dt_lp.Simplex.coeffs; cmp = Dt_lp.Simplex.Le; rhs } :: !cs in
  let ge coeffs rhs = cs := { Dt_lp.Simplex.coeffs; cmp = Dt_lp.Simplex.Ge; rhs } :: !cs in
  for i = 0 to k - 1 do
    (* completion: s'_i + cp_i <= l *)
    le [ (var_s' ly i, 1.0); (var_l, -1.0) ] (-.cp i);
    (* validity: s_i + cm_i <= s'_i *)
    le [ (var_s ly i, 1.0); (var_s' ly i, -1.0) ] (-.cm i);
    (* resource availability at the boundary *)
    ge [ (var_s ly i, 1.0) ] boundary.link_free;
    ge [ (var_s' ly i, 1.0) ] boundary.cpu_free
  done;
  (* binary bounds *)
  for v = ly.off_a to ly.num_vars - 1 do
    let is_c_diag = v >= ly.off_c && v < ly.off_d && (v - ly.off_c) mod (ly.k + 1) = 0 && ly.k > 0 in
    if not is_c_diag then le [ (v, 1.0) ] 1.0
  done;
  (* exclusive use of the two resources, in both orientations *)
  for p = 0 to k - 1 do
    for q = 0 to k - 1 do
      if p <> q then begin
        (* s_p + cm_p <= s_q + (1 - A(p,q)) * big *)
        let vars, const = a_form ly p q in
        let coeffs =
          ((var_s ly p, 1.0) :: (var_s ly q, -1.0)
          :: List.map (fun (v, c) -> (v, c *. big)) vars)
        in
        le coeffs (((1.0 -. const) *. big) -. cm p);
        (* s'_p + cp_p <= s'_q + (1 - B(p,q)) * big *)
        let vars, const = b_form ly p q in
        let coeffs =
          ((var_s' ly p, 1.0) :: (var_s' ly q, -1.0)
          :: List.map (fun (v, c) -> (v, c *. big)) vars)
        in
        le coeffs (((1.0 -. const) *. big) -. cp p);
        (* s'_p + cp_p <= s_q + (1 - c_pq) * big *)
        le
          [ (var_s' ly p, 1.0); (var_s ly q, -1.0); (var_c ly p q, big) ]
          (big -. cp p);
        (* helper: c_pq <= A(p,q) and c_pq <= B(p,q) *)
        let vars, const = a_form ly p q in
        le ((var_c ly p q, 1.0) :: List.map (fun (v, c) -> (v, -.c)) vars) const;
        let vars, const = b_form ly p q in
        le ((var_c ly p q, 1.0) :: List.map (fun (v, c) -> (v, -.c)) vars) const
      end
    done
  done;
  for p = 0 to k - 1 do
    for q = p + 1 to k - 1 do
      (* helper: c_pq + c_qp <= 1 *)
      le [ (var_c ly p q, 1.0); (var_c ly q p, 1.0) ] 1.0
    done
  done;
  (* residual release indicators: release_r <= s_q + (1 - d_qr) * big *)
  for q = 0 to k - 1 do
    for r = 0 to nres - 1 do
      let release, _ = res.(r) in
      le [ (var_s ly q, -1.0); (var_d ly q r, big) ] (big -. release)
    done
  done;
  (* memory at the start of each communication:
       sum_p (A(p,q) - c_pq) mc_p + sum_r (1 - d_qr) m_r + mc_q <= C *)
  for q = 0 to k - 1 do
    let coeffs = ref [] and const = ref (mc q) in
    for p = 0 to k - 1 do
      if p <> q then begin
        let vars, c0 = a_form ly p q in
        List.iter (fun (v, c) -> coeffs := (v, c *. mc p) :: !coeffs) vars;
        const := !const +. (c0 *. mc p);
        coeffs := (var_c ly p q, -.mc p) :: !coeffs
      end
    done;
    for r = 0 to nres - 1 do
      let _, m = res.(r) in
      const := !const +. m;
      coeffs := (var_d ly q r, -.m) :: !coeffs
    done;
    le !coeffs (capacity -. !const)
  done;
  let integer_vars = List.init (ly.num_vars - ly.off_a) (fun i -> ly.off_a + i) in
  ( ly,
    {
      Dt_lp.Milp.relaxation =
        { Dt_lp.Simplex.num_vars = ly.num_vars; objective = [ (var_l, 1.0) ]; constraints = !cs };
      integer_vars;
    },
    horizon )

(* Both orders come from the rounded order variables: a task's position
   on a resource is the number of tasks that [form] puts before it. The
   float start times cannot be trusted for this — a zero-length
   computation and the next one start at the same instant, and noise in
   [s'] may put them the wrong way round, which the eager replay then
   pays for. *)
let decode ~boundary ~capacity ~horizon tasks ly (sol : Dt_lp.Simplex.solution) =
  let arr = Array.of_list tasks in
  let k = Array.length arr in
  let holds (vars, const) =
    List.fold_left (fun acc (v, c) -> acc +. (c *. sol.Dt_lp.Simplex.values.(v))) const vars
    >= 0.5
  in
  let order form =
    let before q =
      Seq.length (Seq.filter (fun p -> p <> q && holds (form ly p q)) (Seq.init k Fun.id))
    in
    let position = Array.init k before in
    List.map (fun i -> arr.(i))
      (List.stable_sort (fun i j -> Int.compare position.(i) position.(j)) (List.init k Fun.id))
  in
  let comm_order = order a_form and comp_order = order b_form in
  let state =
    Sim.restore_state ~link_free:boundary.link_free ~cpu_free:boundary.cpu_free
      ~held:boundary.held
  in
  match Sim.run_two_orders ~state ~capacity ~comm_order comp_order with
  | Ok sched -> Some (Schedule.entries sched)
  | Error (Sim.Too_big _ | Sim.Deadlock _) ->
      (* The raw MILP times are feasible by construction; use them. *)
      let entries =
        List.mapi
          (fun i task ->
            {
              Schedule.task;
              s_comm = sol.Dt_lp.Simplex.values.(var_s ly i) *. horizon;
              s_comp = sol.Dt_lp.Simplex.values.(var_s' ly i) *. horizon;
            })
          tasks
      in
      Some entries

let solve_chunk ?(node_limit = 20000) ~boundary ~capacity tasks =
  match tasks with
  | [] -> Some []
  | _ ->
      let ly, milp, horizon = build_problem ~boundary ~capacity tasks in
      (* Incumbent: eager execution of the chunk in submission order. *)
      let state =
        Sim.restore_state ~link_free:boundary.link_free ~cpu_free:boundary.cpu_free
          ~held:boundary.held
      in
      let incumbent = Sim.run_order_exn ~state ~capacity tasks in
      let ub = Schedule.makespan incumbent /. horizon in
      let outcome = Dt_lp.Milp.solve ~node_limit ~upper_bound:(ub +. 1e-9) milp in
      (match outcome.Dt_lp.Milp.best with
      | Some sol -> decode ~boundary ~capacity ~horizon tasks ly sol
      | None -> None)

let boundary_after entries boundary =
  let link_free =
    List.fold_left (fun acc e -> Float.max acc (Schedule.comm_end e)) boundary.link_free entries
  and cpu_free =
    List.fold_left (fun acc e -> Float.max acc (Schedule.comp_end e)) boundary.cpu_free entries
  in
  let held =
    List.filter (fun (t, _) -> t > link_free) boundary.held
    @ List.filter_map
        (fun e ->
          let ce = Schedule.comp_end e in
          if ce > link_free then Some (ce, e.Schedule.task.Task.mem) else None)
        entries
  in
  { link_free; cpu_free; held }

let rec chunks k = function
  | [] -> []
  | tasks ->
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | t :: rest -> take (n - 1) (t :: acc) rest
      in
      let chunk, rest = take k [] tasks in
      chunk :: chunks k rest

let run ?node_limit ?(boundary = initial_boundary) ~k instance =
  if k < 1 then invalid_arg "Lp_schedule.run: k must be >= 1";
  let capacity = instance.Instance.capacity in
  if not (Instance.feasible instance) then
    invalid_arg "Lp_schedule.run: a task alone exceeds the capacity";
  let all_entries = ref [] in
  let boundary = ref boundary in
  List.iter
    (fun chunk ->
      let entries =
        match solve_chunk ?node_limit ~boundary:!boundary ~capacity chunk with
        | Some entries -> entries
        | None ->
            let state =
              Sim.restore_state ~link_free:!boundary.link_free ~cpu_free:!boundary.cpu_free
                ~held:!boundary.held
            in
            Schedule.entries (Sim.run_order_exn ~state ~capacity chunk)
      in
      all_entries := !all_entries @ entries;
      boundary := boundary_after entries !boundary)
    (chunks k (Instance.task_list instance));
  Schedule.make ~capacity !all_entries
