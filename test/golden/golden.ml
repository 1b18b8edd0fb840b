(* Golden reproduction pins. Generates small fixed-seed HF and CCSD trace
   sets in-process and prints, with %h so that a single changed bit
   shows, the makespan of

   - each of the 14 portfolio heuristics at 1, 1.5 and 2 m_c;
   - batched OOLCMR (batches of 100, the paper's window) at 1, 1.5 and
     2 m_c, which hands the executor state over at each batch boundary;
   - lp.3 on the first 12 tasks at 1.5 m_c, under a 200-node
     branch-and-bound limit (the default limit takes seconds per
     trace);
   - each of the six Cached_rules configurations at 1.5 m_c, with its
     cache statistics (hits, misses, evictions, hit and miss comm);
   - an OOSCMR Engine at 1.5 m_c fed spaced arrivals, drained once at
     the end and drained in blocks of 64 submissions.

   The dune rule next to this file diffs the output against
   golden.expected. *)

open Dt_core

let cluster = Dt_ga.Cluster.cascade
let traces_per_kernel = 4

let traces =
  let first k set = Array.to_list (Array.sub set 0 (min k (Array.length set))) in
  List.mapi (fun p ts -> (Printf.sprintf "hf-p%03d" p, ts))
    (first traces_per_kernel (Dt_chem.Workload.hf_trace_set ~seed:7 ~cluster ~nbf:2400 ()))
  @ List.mapi (fun p ts -> (Printf.sprintf "ccsd-p%03d" p, ts))
      (first traces_per_kernel
         (Dt_chem.Workload.ccsd_trace_set ~seed:7 ~cluster ~n_occ:12 ~n_virt:60 ()))

let instance tasks factor =
  let m_c = List.fold_left (fun a (t : Task.t) -> Float.max a t.Task.mem) 0.0 tasks in
  Instance.make ~capacity:(factor *. m_c) tasks

(* Submits every task, the k-th at arrival k * spacing, draining after
   every [block] submissions and at the end. *)
let engine_makespan ~block (i : Instance.t) =
  let open Dt_runtime in
  let e = Engine.create ~policy:(Engine.Corrected Corrected_rules.OOSCMR) ~capacity:i.Instance.capacity () in
  let n = Instance.size i in
  let spacing = Instance.sum_comm i /. float_of_int (max 1 n) in
  Array.iteri
    (fun k t ->
      (match Engine.submit e ~arrival:(float_of_int k *. spacing) t with
      | Engine.Accepted -> ()
      | a -> failwith (Engine.admission_to_string a));
      if (k + 1) mod block = 0 then ignore (Engine.drain e))
    i.Instance.tasks;
  ignore (Engine.drain e);
  Engine.makespan e

let () =
  List.iter
    (fun (name, tasks) ->
      Printf.printf "%s: %d tasks\n" name (List.length tasks);
      List.iter
        (fun factor ->
          let i = instance tasks factor in
          List.iter
            (fun h ->
              Printf.printf "  %g m_c %-7s %h\n" factor (Heuristic.name h)
                (Schedule.makespan (Heuristic.run h i)))
            Heuristic.all;
          Printf.printf "  %g m_c batched OOLCMR %h\n" factor
            (Schedule.makespan
               (Batched.run ~batch:100 (Heuristic.Corrected Corrected_rules.OOLCMR) i)))
        [ 1.0; 1.5; 2.0 ];
      let prefix = instance (List.filteri (fun k _ -> k < 12) tasks) 1.5 in
      Printf.printf "  1.5 m_c lp.3 on 12 tasks %h\n"
        (Schedule.makespan (Heuristic.run ~lp_node_limit:200 (Heuristic.Lp 3) prefix));
      let i = instance tasks 1.5 in
      List.iter
        (fun policy ->
          List.iter
            (fun c ->
              let s, st = Cached_rules.run ~policy c i in
              Printf.printf "  1.5 m_c %-17s %h hits %d misses %d evictions %d hit_comm %h miss_comm %h\n"
                (Cached_rules.name policy c) (Schedule.makespan s) st.Residency.hits
                st.Residency.misses st.Residency.evictions st.Residency.hit_comm
                st.Residency.miss_comm)
            Dynamic_rules.all)
        Residency.all_policies;
      List.iter
        (fun (what, block) ->
          Printf.printf "  1.5 m_c OOSCMR engine, %s %h\n" what (engine_makespan ~block i))
        [ ("one drain     ", max_int); ("drains of 64  ", 64) ])
    traces
