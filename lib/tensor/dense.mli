(** Dense row-major tensors of floats: the data the chemistry kernels
    move between memory nodes and compute on. *)

type t = private {
  shape : Shape.t;
  data : float array;  (** length [Shape.size shape] *)
}

val create : Shape.t -> float -> t
val init : Shape.t -> (int array -> float) -> t
val of_array : Shape.t -> float array -> t
(** Raises [Invalid_argument] on a length mismatch. The array is copied. *)

val get : t -> int array -> float
val set : t -> int array -> float -> unit

val shape : t -> Shape.t
val size : t -> int
val bytes : t -> int
(** Size in bytes at 8 bytes per element — what a transfer moves. *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
(** Raises [Invalid_argument] on shape mismatch. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val fill : t -> float -> unit

val dot : t -> t -> float
(** Sum of elementwise products (Frobenius inner product). *)

val norm2 : t -> float
(** Frobenius norm. *)

val max_abs_diff : t -> t -> float

val equal : ?eps:float -> t -> t -> bool

val random : Dt_stats.Rng.t -> Shape.t -> t
(** Entries uniform in [[-1, 1)]. *)

val pp : Format.formatter -> t -> unit
