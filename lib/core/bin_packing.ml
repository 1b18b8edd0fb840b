type bin = { mutable free : float; mutable members : Task.t list }

(* fills the unused end of the open-bin array; long-lived, so growing the
   array does not force a minor collection as a young fill value would *)
let no_bin = { free = 0.0; members = [] }

let bins ~capacity tasks =
  (* the open bins in opening order, a growable array *)
  let open_bins = ref [||] and count = ref 0 in
  let open_bin b =
    if !count = Array.length !open_bins then begin
      let grown = Array.make (max 8 (2 * !count)) no_bin in
      Array.blit !open_bins 0 grown 0 !count;
      open_bins := grown
    end;
    !open_bins.(!count) <- b;
    incr count
  in
  let place t =
    if t.Task.mem > capacity *. (1.0 +. 1e-12) then
      invalid_arg
        (Printf.sprintf "Bin_packing: task %d needs %g > capacity %g" t.Task.id t.Task.mem
           capacity);
    let rec fit i =
      if i = !count then open_bin { free = capacity -. t.Task.mem; members = [ t ] }
      else
        let b = !open_bins.(i) in
        if t.Task.mem <= b.free +. (1e-12 *. Float.max 1.0 capacity) then begin
          b.free <- b.free -. t.Task.mem;
          b.members <- t :: b.members
        end
        else fit (i + 1)
    in
    fit 0
  in
  List.iter place tasks;
  List.init !count (fun i -> List.rev !open_bins.(i).members)

let order ~capacity tasks = List.concat (bins ~capacity tasks)

let run ?state instance =
  let capacity = instance.Instance.capacity in
  Sim.run_order_exn ?state ~capacity (order ~capacity (Instance.task_list instance))
