(** Dense symmetric linear algebra on rank-2 tensors: the eigensolver and
    the matrix functions the Hartree-Fock self-consistent field loop
    needs (orthogonalisation, Fock diagonalisation). *)

val eigh : ?max_sweeps:int -> ?tol:float -> Dense.t -> float array * Dense.t
(** [eigh m] for a symmetric matrix returns [(eigenvalues, vectors)] with
    eigenvalues ascending and [vectors] carrying the corresponding
    eigenvectors in its columns, computed by the cyclic Jacobi rotation
    method. Raises [Invalid_argument] on a non-square input. *)

val inverse_sqrt : Dense.t -> Dense.t
(** [S^{-1/2}] via the eigendecomposition of the symmetric positive
    definite matrix [S] (symmetric/Loewdin orthogonalisation). Raises
    [Invalid_argument] when an eigenvalue is not strictly positive. *)

val solve_lower_triangular : Dense.t -> float array -> float array
(** Forward substitution, used by tests as an independent check. *)
