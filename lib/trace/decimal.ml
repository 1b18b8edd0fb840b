(* The fast path and its proof are in DESIGN.md, "Reading numbers". *)

(* 10^k for k <= 22, each exact: 10^k = 5^k 2^k and 5^22 < 2^53. *)
let pow10 =
  [|
    1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15;
    1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22;
  |]

let two_53 = 1 lsl 53

let is_digit c = c >= '0' && c <= '9'

(* The value of [b.[pos, pos + len)] when it is in the fast grammar and
   can be rounded here, else nan (which the fast path never yields). *)
let fast b pos len =
  let e = pos + len in
  let neg = len > 0 && Bytes.unsafe_get b pos = '-' in
  let start = if neg then pos + 1 else pos in
  let i = ref start in
  (* [w]: the mantissa's digits from its first non-zero one, [nd] of
     them; [q]: the decimal exponent, one down per fraction digit *)
  let w = ref 0 and nd = ref 0 and q = ref 0 and dot = ref false and more = ref true in
  while !more && !i < e do
    let c = Bytes.unsafe_get b !i in
    if is_digit c then begin
      let d = Char.code c - 48 in
      if !nd > 0 || d > 0 then begin
        w := (!w * 10) + d;
        incr nd
      end;
      if !dot then decr q;
      incr i
    end
    else if c = '.' && not !dot then begin
      dot := true;
      incr i
    end
    else more := false
  done;
  let ok = ref (!i - start > if !dot then 1 else 0) in
  if !i < e && (Bytes.unsafe_get b !i = 'e' || Bytes.unsafe_get b !i = 'E') then begin
    incr i;
    let eneg = !i < e && Bytes.unsafe_get b !i = '-' in
    if !i < e && (eneg || Bytes.unsafe_get b !i = '+') then incr i;
    let first = !i and x = ref 0 in
    while !i < e && is_digit (Bytes.unsafe_get b !i) do
      (* a larger exponent falls back anyway; the cap keeps [x] small *)
      if !x < 100_000 then x := (!x * 10) + Char.code (Bytes.unsafe_get b !i) - 48;
      incr i
    done;
    if !i = first then ok := false;
    q := if eneg then !q - !x else !q + !x
  end;
  if (not !ok) || !i < e || !nd > 18 then Float.nan
  else if !w = 0 then if neg then -0.0 else 0.0
  else if !q < -22 || !q > 22 then Float.nan
  else
    let w = !w and q = !q in
    let p = Array.unsafe_get pow10 (abs q) in
    let r =
      if w <= two_53 then
        (* Clinger: w and 10^|q| are exact, so one rounding *)
        let x = float_of_int w in
        if q >= 0 then x *. p else x /. p
      else
        (* w = hi + lo, both exact; r0 + c approximates w 10^q within
           err, and r = r0 + c exactly minus d (Fast2Sum) *)
        let lo = w land 0x7ff in
        let hi = float_of_int (w - lo) and lo = float_of_int lo in
        let r0 = if q >= 0 then hi *. p else hi /. p in
        let c =
          if q >= 0 then Float.fma lo p (Float.fma hi p (-.r0))
          else (Float.fma (-.r0) p hi +. lo) /. p
        in
        let err = Float.abs c *. if q >= 0 then 0x1p-52 else 0x1p-51 in
        let r = r0 +. c in
        let d = c -. (r -. r0) in
        (* inside r's rounding interval by more than err: r is exact *)
        if Float.abs d +. err < 0.5 *. (r -. Float.pred r) then r else Float.nan
    in
    if Float.is_nan r then r else if neg then -.r else r

let of_bytes_opt b ~pos ~len =
  let r = fast b pos len in
  if Float.is_nan r then float_of_string_opt (Bytes.sub_string b pos len) else Some r

let of_string_opt s =
  let r = fast (Bytes.unsafe_of_string s) 0 (String.length s) in
  if Float.is_nan r then float_of_string_opt s else Some r
