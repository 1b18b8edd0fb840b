let square_dim m =
  let d = Shape.dims (Dense.shape m) in
  if Array.length d <> 2 || d.(0) <> d.(1) then invalid_arg "Linalg: square matrix expected";
  d.(0)

(* Cyclic Jacobi: repeatedly zero the largest-magnitude off-diagonal
   entries with Givens rotations; quadratically convergent for symmetric
   matrices and perfectly adequate for the basis sizes of the examples. *)
let eigh ?(max_sweeps = 100) ?(tol = 1e-12) m =
  let n = square_dim m in
  let a = Array.init n (fun i -> Array.init n (fun j -> Dense.get m [| i; j |])) in
  let v = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)) in
  let off_diag_norm () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        acc := !acc +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    sqrt !acc
  in
  let rotate p q =
    let apq = a.(p).(q) in
    if Float.abs apq > 0.0 then begin
      let theta = (a.(q).(q) -. a.(p).(p)) /. (2.0 *. apq) in
      let t =
        let s = if theta >= 0.0 then 1.0 else -1.0 in
        s /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
      in
      let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
      let s = t *. c in
      for k = 0 to n - 1 do
        let akp = a.(k).(p) and akq = a.(k).(q) in
        a.(k).(p) <- (c *. akp) -. (s *. akq);
        a.(k).(q) <- (s *. akp) +. (c *. akq)
      done;
      for k = 0 to n - 1 do
        let apk = a.(p).(k) and aqk = a.(q).(k) in
        a.(p).(k) <- (c *. apk) -. (s *. aqk);
        a.(q).(k) <- (s *. apk) +. (c *. aqk)
      done;
      for k = 0 to n - 1 do
        let vkp = v.(k).(p) and vkq = v.(k).(q) in
        v.(k).(p) <- (c *. vkp) -. (s *. vkq);
        v.(k).(q) <- (s *. vkp) +. (c *. vkq)
      done
    end
  in
  let sweeps = ref 0 in
  while off_diag_norm () > tol && !sweeps < max_sweeps do
    incr sweeps;
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        rotate p q
      done
    done
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare a.(i).(i) a.(j).(j)) order;
  let values = Array.map (fun i -> a.(i).(i)) order in
  let vectors =
    Dense.init (Shape.of_list [ n; n ]) (fun idx -> v.(idx.(0)).(order.(idx.(1))))
  in
  (values, vectors)

let inverse_sqrt s =
  let values, vectors = eigh s in
  let n = Array.length values in
  Array.iter
    (fun l -> if l <= 1e-12 then invalid_arg "Linalg.inverse_sqrt: matrix not positive definite")
    values;
  let d =
    Dense.init (Shape.of_list [ n; n ]) (fun idx ->
        if idx.(0) = idx.(1) then 1.0 /. sqrt values.(idx.(0)) else 0.0)
  in
  (* V d V^T *)
  Ops.matmul (Ops.matmul vectors d) (Ops.transpose vectors [| 1; 0 |])

let solve_lower_triangular l b =
  let n = square_dim l in
  if Array.length b <> n then invalid_arg "Linalg.solve_lower_triangular: size mismatch";
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Dense.get l [| i; j |] *. x.(j))
    done;
    let d = Dense.get l [| i; i |] in
    if Float.abs d < 1e-14 then invalid_arg "Linalg.solve_lower_triangular: singular";
    x.(i) <- !acc /. d
  done;
  x
