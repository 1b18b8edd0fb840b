let transpose t perm =
  let in_shape = Dense.shape t in
  let out_shape = Shape.permute in_shape perm in
  let in_strides = Shape.strides in_shape in
  (* stride of output axis i in the INPUT linear layout *)
  let strides = Array.map (fun p -> in_strides.(p)) perm in
  Dense.init out_shape (fun idx ->
      let lin = ref 0 in
      Array.iteri (fun i v -> lin := !lin + (v * strides.(i))) idx;
      t.Dense.data.(!lin))

let check_axes a b axes =
  let ra = Shape.rank (Dense.shape a) and rb = Shape.rank (Dense.shape b) in
  let da = Shape.dims (Dense.shape a) and db = Shape.dims (Dense.shape b) in
  let seen_a = Array.make ra false and seen_b = Array.make rb false in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= ra || j < 0 || j >= rb then
        invalid_arg "Ops.contract: axis out of range";
      if seen_a.(i) || seen_b.(j) then invalid_arg "Ops.contract: repeated axis";
      if da.(i) <> db.(j) then invalid_arg "Ops.contract: contracted dimensions differ";
      seen_a.(i) <- true;
      seen_b.(j) <- true)
    axes;
  (seen_a, seen_b)

let contract a b ~axes =
  let seen_a, seen_b = check_axes a b axes in
  let da = Shape.dims (Dense.shape a) and db = Shape.dims (Dense.shape b) in
  let sa = Shape.strides (Dense.shape a) and sb = Shape.strides (Dense.shape b) in
  let free_a = List.filter (fun i -> not seen_a.(i)) (List.init (Array.length da) Fun.id) in
  let free_b = List.filter (fun j -> not seen_b.(j)) (List.init (Array.length db) Fun.id) in
  let out_dims = List.map (fun i -> da.(i)) free_a @ List.map (fun j -> db.(j)) free_b in
  let out_shape = Shape.of_list out_dims in
  (* Walk the output indices and, inside, the contracted indices, tracking
     the linear offsets into a and b incrementally. *)
  let free_a = Array.of_list free_a and free_b = Array.of_list free_b in
  let con = Array.of_list axes in
  let ncon = Array.length con in
  let con_dims = Array.map (fun (i, _) -> da.(i)) con in
  let con_size = Array.fold_left ( * ) 1 con_dims in
  let con_sa = Array.map (fun (i, _) -> sa.(i)) con in
  let con_sb = Array.map (fun (_, j) -> sb.(j)) con in
  let data_a = a.Dense.data and data_b = b.Dense.data in
  let result = Dense.create out_shape 0.0 in
  let nfa = Array.length free_a in
  let out_size = Shape.size out_shape in
  let out_strides_a = Array.map (fun i -> sa.(i)) free_a in
  let out_strides_b = Array.map (fun j -> sb.(j)) free_b in
  for o = 0 to out_size - 1 do
    let idx = Shape.multi_index out_shape o in
    let base_a = ref 0 and base_b = ref 0 in
    Array.iteri
      (fun k v ->
        if k < nfa then base_a := !base_a + (v * out_strides_a.(k))
        else base_b := !base_b + (v * out_strides_b.(k - nfa)))
      idx;
    let acc = ref 0.0 in
    (* enumerate the contracted multi-index *)
    let cidx = Array.make ncon 0 in
    let off_a = ref !base_a and off_b = ref !base_b in
    let continue_ = ref true in
    while !continue_ do
      acc := !acc +. (data_a.(!off_a) *. data_b.(!off_b));
      (* increment cidx as a mixed-radix counter *)
      let rec bump k =
        if k < 0 then continue_ := false
        else begin
          cidx.(k) <- cidx.(k) + 1;
          off_a := !off_a + con_sa.(k);
          off_b := !off_b + con_sb.(k);
          if cidx.(k) = con_dims.(k) then begin
            off_a := !off_a - (con_dims.(k) * con_sa.(k));
            off_b := !off_b - (con_dims.(k) * con_sb.(k));
            cidx.(k) <- 0;
            bump (k - 1)
          end
        end
      in
      if con_size = 1 then continue_ := false else bump (ncon - 1)
    done;
    result.Dense.data.(o) <- !acc
  done;
  result

let contract_flops a b ~axes =
  let seen_a, seen_b = check_axes a b axes in
  let da = Shape.dims (Dense.shape a) and db = Shape.dims (Dense.shape b) in
  let free =
    List.fold_left ( * ) 1
      (List.filteri (fun i _ -> not seen_a.(i)) (Array.to_list da)
      @ List.filteri (fun j _ -> not seen_b.(j)) (Array.to_list db))
  in
  let contracted = List.fold_left (fun acc (i, _) -> acc * da.(i)) 1 axes in
  2.0 *. float_of_int free *. float_of_int contracted

let matmul a b =
  if Shape.rank (Dense.shape a) <> 2 || Shape.rank (Dense.shape b) <> 2 then
    invalid_arg "Ops.matmul: rank-2 tensors expected";
  contract a b ~axes:[ (1, 0) ]

let identity n = Dense.init (Shape.of_list [ n; n ]) (fun idx -> if idx.(0) = idx.(1) then 1.0 else 0.0)

let trace t =
  let s = Dense.shape t in
  let d = Shape.dims s in
  if Shape.rank s <> 2 || d.(0) <> d.(1) then invalid_arg "Ops.trace: square matrix expected";
  let acc = ref 0.0 in
  for i = 0 to d.(0) - 1 do
    acc := !acc +. Dense.get t [| i; i |]
  done;
  !acc
