(** An exact decimal reader: [float_of_string_opt], bit for bit, with a
    fast path for the plain decimals that traces and text requests carry.

    The fast path reads an optional [-], digits, an optional [.] and
    digits, and an optional [e]/[E] exponent, of at most 18 significant
    digits and a decimal exponent q with |q| <= 22, and rounds it
    correctly (Clinger's fast path, extended with an FMA correction;
    DESIGN.md, "Reading numbers", has the proof). Everything else (hex,
    [_], [+], blanks, [inf], [nan], longer mantissas, larger exponents,
    and the rare value too close to a rounding boundary) goes to
    [float_of_string_opt] itself, so the two accept exactly the same
    strings and agree on every bit. *)

val of_string_opt : string -> float option
(** [of_string_opt s] is [float_of_string_opt s]. *)

val of_bytes_opt : Bytes.t -> pos:int -> len:int -> float option
(** [of_bytes_opt b ~pos ~len] is [of_string_opt (Bytes.sub_string b pos len)],
    without the copy unless it falls back. *)
