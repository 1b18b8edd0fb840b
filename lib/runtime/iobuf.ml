(* Chunked byte buffer: a FIFO of fixed-size Bytes chunks with read and
   write cursors. See iobuf.mli for the contract. The shape invariants:

   - [head = None] iff [tail = None]; [length] is the sum of
     [wpos - rpos] over the chunk list.
   - Drained non-tail chunks are released eagerly by [advance]; a fully
     drained tail chunk is reset in place ([rpos = wpos = 0]) so a
     connection alternating request/response reuses one chunk instead
     of churning the allocator. A chunk with [rpos = wpos] can
     therefore only be the tail (readers still skip empties defensively
     because [fill_from] may reserve a tail chunk and then hit EAGAIN).
   - One released chunk's storage is kept in [spare] for the next
     allocation. *)

type chunk = {
  bytes : Bytes.t;
  mutable rpos : int; (* first pending byte *)
  mutable wpos : int; (* end of pending bytes; [wpos..length bytes) is free *)
  mutable next : chunk option;
}

type t = {
  chunk_size : int;
  mutable head : chunk option;
  mutable tail : chunk option;
  mutable length : int;
  mutable spare : Bytes.t option;
}

let create ?(chunk_size = 16384) () =
  if chunk_size < 16 then invalid_arg "Iobuf.create: chunk_size must be >= 16";
  { chunk_size; head = None; tail = None; length = 0; spare = None }

let length t = t.length
let is_empty t = t.length = 0

let alloc_chunk t =
  let bytes =
    match t.spare with
    | Some b ->
        t.spare <- None;
        b
    | None -> Bytes.create t.chunk_size
  in
  { bytes; rpos = 0; wpos = 0; next = None }

(* The tail chunk with at least one free byte, allocating if needed. *)
let writable t =
  match t.tail with
  | Some c when c.wpos < Bytes.length c.bytes -> c
  | _ ->
      let c = alloc_chunk t in
      (match t.tail with
      | None ->
          t.head <- Some c;
          t.tail <- Some c
      | Some tl ->
          tl.next <- Some c;
          t.tail <- Some c);
      c

(* ------------------------------ append ------------------------------ *)

let add_char t ch =
  let c = writable t in
  Bytes.unsafe_set c.bytes c.wpos ch;
  c.wpos <- c.wpos + 1;
  t.length <- t.length + 1

let add_substring t s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Iobuf.add_substring";
  let pos = ref pos and remaining = ref len in
  while !remaining > 0 do
    let c = writable t in
    let n = min !remaining (Bytes.length c.bytes - c.wpos) in
    Bytes.blit_string s !pos c.bytes c.wpos n;
    c.wpos <- c.wpos + n;
    pos := !pos + n;
    remaining := !remaining - n
  done;
  t.length <- t.length + len

let add_string t s = add_substring t s 0 (String.length s)

let add_subbytes t b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Iobuf.add_subbytes";
  let pos = ref pos and remaining = ref len in
  while !remaining > 0 do
    let c = writable t in
    let n = min !remaining (Bytes.length c.bytes - c.wpos) in
    Bytes.blit b !pos c.bytes c.wpos n;
    c.wpos <- c.wpos + n;
    pos := !pos + n;
    remaining := !remaining - n
  done;
  t.length <- t.length + len

let add_u32_be t v =
  let c = writable t in
  if Bytes.length c.bytes - c.wpos >= 4 then begin
    Bytes.set_int32_be c.bytes c.wpos (Int32.of_int v);
    c.wpos <- c.wpos + 4;
    t.length <- t.length + 4
  end
  else begin
    (* header straddles a chunk boundary: byte-wise slow path *)
    add_char t (Char.unsafe_chr ((v lsr 24) land 0xff));
    add_char t (Char.unsafe_chr ((v lsr 16) land 0xff));
    add_char t (Char.unsafe_chr ((v lsr 8) land 0xff));
    add_char t (Char.unsafe_chr (v land 0xff))
  end

(* ------------------------------ peek -------------------------------- *)

let peek_byte t i =
  if i < 0 || i >= t.length then invalid_arg "Iobuf.peek_byte";
  let rec go i = function
    | None -> assert false
    | Some c ->
        let avail = c.wpos - c.rpos in
        if i < avail then Bytes.unsafe_get c.bytes (c.rpos + i)
        else go (i - avail) c.next
  in
  go i t.head

let peek_u32_be t =
  if t.length < 4 then invalid_arg "Iobuf.peek_u32_be";
  match t.head with
  | Some c when c.wpos - c.rpos >= 4 ->
      Int32.to_int (Bytes.get_int32_be c.bytes c.rpos) land 0xffffffff
  | _ ->
      (Char.code (peek_byte t 0) lsl 24)
      lor (Char.code (peek_byte t 1) lsl 16)
      lor (Char.code (peek_byte t 2) lsl 8)
      lor Char.code (peek_byte t 3)

let index_char t ~from ch =
  if from < 0 then invalid_arg "Iobuf.index_char";
  let rec go skip base = function
    | None -> None
    | Some c ->
        let avail = c.wpos - c.rpos in
        if skip >= avail then go (skip - avail) (base + avail) c.next
        else begin
          let rec scan i =
            if i >= c.wpos then go 0 (base + avail) c.next
            else if Bytes.unsafe_get c.bytes i = ch then
              Some (base + (i - c.rpos))
            else scan (i + 1)
          in
          scan (c.rpos + skip)
        end
  in
  go from 0 t.head

(* ----------------------------- consume ------------------------------ *)

let advance t n =
  if n < 0 || n > t.length then invalid_arg "Iobuf.advance";
  t.length <- t.length - n;
  let rec go n =
    match t.head with
    | None -> assert (n = 0)
    | Some c ->
        let avail = c.wpos - c.rpos in
        if n < avail then c.rpos <- c.rpos + n
        else begin
          match c.next with
          | Some next ->
              t.head <- Some next;
              if t.spare = None && Bytes.length c.bytes = t.chunk_size then
                t.spare <- Some c.bytes;
              go (n - avail)
          | None ->
              (* drained tail: reset in place for reuse *)
              c.rpos <- 0;
              c.wpos <- 0
        end
  in
  if n > 0 then go n

(* Copy the first [n] pending bytes into [dst.(0 .. n-1)] without
   consuming them; caller guarantees [n <= length]. *)
let blit_out t n dst =
  let rec go off = function
    | _ when off = n -> ()
    | None -> assert false
    | Some c ->
        let k = min (c.wpos - c.rpos) (n - off) in
        Bytes.blit c.bytes c.rpos dst off k;
        go (off + k) c.next
  in
  go 0 t.head

let read_string t n =
  if n < 0 || n > t.length then invalid_arg "Iobuf.read_string";
  if n = 0 then ""
  else begin
    let dst = Bytes.create n in
    blit_out t n dst;
    advance t n;
    Bytes.unsafe_to_string dst
  end

let contents t =
  if t.length = 0 then ""
  else begin
    let dst = Bytes.create t.length in
    blit_out t t.length dst;
    Bytes.unsafe_to_string dst
  end

let clear t = advance t t.length

(* ----------------------------- bulk I/O ----------------------------- *)

let iovecs ?(max = 64) t =
  if max < 1 then invalid_arg "Iobuf.iovecs";
  let rec count k = function
    | Some c when k < max ->
        count (if c.wpos > c.rpos then k + 1 else k) c.next
    | _ -> k
  in
  let n = count 0 t.head in
  if n = 0 then [||]
  else begin
    let arr = Array.make n (Bytes.empty, 0, 0) in
    let rec fill i = function
      | Some c when i < n ->
          if c.wpos > c.rpos then begin
            arr.(i) <- (c.bytes, c.rpos, c.wpos - c.rpos);
            fill (i + 1) c.next
          end
          else fill i c.next
      | _ -> ()
    in
    fill 0 t.head;
    arr
  end

let fill_from t fd =
  let c = writable t in
  let n = Unix.read fd c.bytes c.wpos (Bytes.length c.bytes - c.wpos) in
  c.wpos <- c.wpos + n;
  t.length <- t.length + n;
  n
