(** Tensor operations: transpose (axis permutation) and binary
    contraction — the two computations the paper's chemistry kernels
    (tensor transpose, tensor contraction) perform — together with their
    arithmetic cost model. *)

val transpose : Dense.t -> int array -> Dense.t
(** [transpose t perm] has element [perm]-permuted indices:
    [get (transpose t perm) idx = get t (fun j -> idx.(inverse perm j))].
    Axis [i] of the result is axis [perm.(i)] of the input. *)

val contract : Dense.t -> Dense.t -> axes:(int * int) list -> Dense.t
(** [contract a b ~axes] sums over the paired axes [(axis_of_a,
    axis_of_b)]; the result carries the free axes of [a] (in order)
    followed by the free axes of [b]. Generalises matrix multiplication
    ([axes = [(1, 0)]]). Raises [Invalid_argument] on dimension
    mismatches or repeated axes. *)

val contract_flops : Dense.t -> Dense.t -> axes:(int * int) list -> float
(** [2 * |output| * |contracted|] floating-point operations —
    the multiply-add count of the naive algorithm. *)

val matmul : Dense.t -> Dense.t -> Dense.t
(** Rank-2 convenience wrapper over {!contract}. *)

val identity : int -> Dense.t

val trace : Dense.t -> float
(** Sum of the diagonal of a square rank-2 tensor. *)
