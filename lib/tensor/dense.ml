type t = {
  shape : Shape.t;
  data : float array;
}

let create shape v = { shape; data = Array.make (Shape.size shape) v }

let init shape f =
  { shape; data = Array.init (Shape.size shape) (fun i -> f (Shape.multi_index shape i)) }

let of_array shape data =
  if Array.length data <> Shape.size shape then
    invalid_arg "Dense.of_array: data length does not match shape";
  { shape; data = Array.copy data }

let get t idx = t.data.(Shape.linear_index t.shape idx)

let set t idx v = t.data.(Shape.linear_index t.shape idx) <- v

let shape t = t.shape

let size t = Array.length t.data

let bytes t = 8 * size t

let map f t = { t with data = Array.map f t.data }

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Dense.map2: shape mismatch";
  { a with data = Array.map2 f a.data b.data }

let add = map2 ( +. )
let sub = map2 ( -. )
let scale k = map (fun x -> k *. x)
let fill t v = Array.fill t.data 0 (Array.length t.data) v

let dot a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Dense.dot: shape mismatch";
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.data.(i))) a.data;
  !acc

let norm2 t = sqrt (dot t t)

let max_abs_diff a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Dense.max_abs_diff: shape mismatch";
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := Float.max !acc (Float.abs (x -. b.data.(i)))) a.data;
  !acc

let equal ?(eps = 0.0) a b = Shape.equal a.shape b.shape && max_abs_diff a b <= eps

let random rng shape =
  {
    shape;
    data = Array.init (Shape.size shape) (fun _ -> Dt_stats.Rng.uniform rng (-1.0) 1.0);
  }

let pp ppf t =
  Format.fprintf ppf "@[<h>tensor %a [" Shape.pp t.shape;
  let n = Array.length t.data in
  for i = 0 to min (n - 1) 15 do
    if i > 0 then Format.fprintf ppf "; ";
    Format.fprintf ppf "%g" t.data.(i)
  done;
  if n > 16 then Format.fprintf ppf "; ...";
  Format.fprintf ppf "]@]"
