type 'a t = { cmp : 'a -> 'a -> int; mutable data : 'a array; mutable size : int }

let create ~cmp = { cmp; data = [||]; size = 0 }
let size h = h.size
let is_empty h = h.size = 0

let add h x =
  if h.size = Array.length h.data then
    (* Double by appending the array to itself: seeding a large array
       with a young [x] through [Array.make] would force a minor
       collection on OCaml 5, [Array.append] does not. *)
    h.data <- (if h.size = 0 then Array.make 8 x else Array.append h.data h.data);
  (* move the hole at the end up to [x]'s place *)
  let rec up i =
    if i = 0 then 0
    else
      let p = (i - 1) / 2 in
      if h.cmp x h.data.(p) < 0 then begin
        h.data.(i) <- h.data.(p);
        up p
      end
      else i
  in
  h.data.(up h.size) <- x;
  h.size <- h.size + 1

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    let n = h.size - 1 in
    h.size <- n;
    if n > 0 then begin
      (* move the hole at the root down to the last element's place *)
      let x = h.data.(n) in
      let rec down i =
        let l = (2 * i) + 1 in
        if l >= n then i
        else
          let c = if l + 1 < n && h.cmp h.data.(l + 1) h.data.(l) < 0 then l + 1 else l in
          if h.cmp h.data.(c) x < 0 then begin
            h.data.(i) <- h.data.(c);
            down c
          end
          else i
      in
      h.data.(down 0) <- x
    end;
    Some top
  end
