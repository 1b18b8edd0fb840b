type request =
  | Init of {
      capacity : float;
      policy : Engine.policy;
      queue_limit : int option;
      binary : bool;
    }
  | Submit of { label : string; comm : float; comp : float; mem : float; arrival : float }
  | Poll
  | Entries
  | Stats
  | Drain
  | Quit
  | Shutdown

let fields line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let finite_float ~what s =
  match Dt_trace.Decimal.of_string_opt s with
  | Some v when Float.is_nan v -> Error (Printf.sprintf "%s: NaN is not a value" what)
  | Some v when v = Float.infinity || v = Float.neg_infinity ->
      Error (Printf.sprintf "%s: must be finite" what)
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: not a number (%S)" what s)

let nonneg_float ~what s =
  Result.bind (finite_float ~what s) (fun v ->
      if v < 0.0 then Error (Printf.sprintf "%s: must be non-negative (%g)" what v)
      else Ok v)

let pos_float ~what s =
  Result.bind (finite_float ~what s) (fun v ->
      if v <= 0.0 then Error (Printf.sprintf "%s: must be positive (%g)" what v)
      else Ok v)

let ( let* ) = Result.bind

let parse_submit = function
  | label :: comm :: comp :: mem :: rest ->
      let* comm = nonneg_float ~what:"comm" comm in
      let* comp = nonneg_float ~what:"comp" comp in
      let* mem = nonneg_float ~what:"mem" mem in
      let* arrival =
        match rest with
        | [] -> Ok 0.0
        | [ a ] -> nonneg_float ~what:"arrival" a
        | _ -> Error "SUBMIT: too many fields"
      in
      Ok (Submit { label; comm; comp; mem; arrival })
  | _ -> Error "SUBMIT: expected <label> <comm> <comp> <mem> [<arrival>]"

let parse_init fields =
  (* the mode token, when present, is the last field: "INIT 10 binary",
     "INIT 10 OOSCMR binary", "INIT 10 OOSCMR 64 binary" are all valid *)
  let fields, binary =
    match List.rev fields with
    | last :: rev_rest when String.lowercase_ascii last = "binary" ->
        (List.rev rev_rest, true)
    | _ -> (fields, false)
  in
  match fields with
  | capacity :: rest ->
      let* capacity = pos_float ~what:"capacity" capacity in
      let* policy, rest =
        match rest with
        | [] -> Ok (Engine.Corrected Dt_core.Corrected_rules.OOSCMR, [])
        | p :: rest -> (
            match Engine.policy_of_name p with
            | Some policy -> Ok (policy, rest)
            | None -> Error (Printf.sprintf "unknown policy %S" p))
      in
      let* queue_limit =
        match rest with
        | [] -> Ok None
        | [ q ] -> (
            match int_of_string_opt q with
            | Some n when n > 0 -> Ok (Some n)
            | Some _ | None ->
                Error (Printf.sprintf "queue-limit: not a positive integer (%S)" q))
        | _ -> Error "INIT: too many fields"
      in
      Ok (Init { capacity; policy; queue_limit; binary })
  | [] -> Error "INIT: expected <capacity> [<policy> [<queue-limit>]] [binary]"

let no_args name request = function
  | [] -> Ok request
  | _ -> Error (name ^ ": takes no arguments")

let parse_request line =
  match fields line with
  | [] -> Error "empty request"
  | verb :: rest -> (
      match String.uppercase_ascii verb with
      | "INIT" -> parse_init rest
      | "SUBMIT" -> parse_submit rest
      | "POLL" -> no_args "POLL" Poll rest
      | "ENTRIES" -> no_args "ENTRIES" Entries rest
      | "STATS" -> no_args "STATS" Stats rest
      | "DRAIN" -> no_args "DRAIN" Drain rest
      | "QUIT" -> no_args "QUIT" Quit rest
      | "SHUTDOWN" -> no_args "SHUTDOWN" Shutdown rest
      | v -> Error (Printf.sprintf "unknown command %S" v))

let render_request = function
  | Init { capacity; policy; queue_limit; binary } ->
      Printf.sprintf "INIT %.17g %s%s%s" capacity (Engine.policy_name policy)
        (match queue_limit with None -> "" | Some q -> Printf.sprintf " %d" q)
        (if binary then " binary" else "")
  | Submit { label; comm; comp; mem; arrival } ->
      Printf.sprintf "SUBMIT %s %.17g %.17g %.17g %.17g" label comm comp mem arrival
  | Poll -> "POLL"
  | Entries -> "ENTRIES"
  | Stats -> "STATS"
  | Drain -> "DRAIN"
  | Quit -> "QUIT"
  | Shutdown -> "SHUTDOWN"

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let ok payload = "OK " ^ one_line payload
let err ~code msg = Printf.sprintf "ERR %s %s" code (one_line msg)

let switches_to_binary line =
  (* callers hand over raw lines; tolerate the \r a CRLF peer leaves *)
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  match parse_request line with Ok (Init { binary; _ }) -> binary | _ -> false

(* ----------------------- binary framing ------------------------------ *)

(* One frame = u32 big-endian payload length + payload, bounded by
   [max_frame_bytes]. A request frame's payload is a concatenation of
   encoded requests (this is what submission batching rides on: one
   frame, many SUBMITs, one engine pass); a response frame's payload is
   a concatenation of u32-length-prefixed response lines — the same
   lines the text protocol would have sent, so POLL/ENTRIES framing
   needs no announced-count parsing in binary mode.

   Request encodings (tag byte first):
     'S'  SUBMIT   u16 label-length, label bytes, then comm/comp/mem/
                   arrival as IEEE-754 doubles (big-endian)
     'I'  INIT     f64 capacity, u8 policy-name length, policy name,
                   u32 queue-limit (0 = none), u8 binary flag
     'P'  POLL     'E' ENTRIES  'T' STATS  'D' DRAIN  'Q' QUIT
     'X'  SHUTDOWN (all single-byte)

   Field values are validated exactly like the text parser (finite,
   sign constraints, known policy); a value error is *recoverable* —
   every field has a fixed or self-delimiting size, so the decoder can
   report the bad request and keep its position. Only structural
   errors (unknown tag, truncated payload, oversized frame) are fatal
   to the connection: there is no way to resynchronise a binary
   stream. *)

let max_frame_bytes = 1 lsl 20

type 'a frame = Frame of 'a * int | Need_more | Frame_error of string

let frame payload =
  let b = Buffer.create (String.length payload + 4) in
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

let frame_into buf payload =
  Iobuf.add_u32_be buf (String.length payload);
  Iobuf.add_string buf payload

(* Frame extraction over the connection's chunked reassembly buffer: the
   header is peeked in O(1) and the payload is copied out exactly once,
   when complete — a sender trickling a frame byte-by-byte costs
   O(frame) total, not O(frame^2). A completed frame (and a structurally
   broken header) is consumed; [Need_more] leaves the buffer
   untouched. The error prints a length past 2^31 as its signed 32-bit
   value. *)
let frame_of_buf buf =
  if Iobuf.length buf < 4 then Need_more
  else
    let len = Iobuf.peek_u32_be buf in
    if len > max_frame_bytes then
      Frame_error
        (Printf.sprintf "frame length %d out of bounds (max %d)"
           (Int32.to_int (Int32.of_int len))
           max_frame_bytes)
    else if Iobuf.length buf - 4 < len then Need_more
    else begin
      Iobuf.advance buf 4;
      Frame (Iobuf.read_string buf len, 4 + len)
    end

let add_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let encode_request b = function
  | Submit { label; comm; comp; mem; arrival } ->
      if String.length label > 0xffff then
        invalid_arg "Protocol.encode: label exceeds 65535 bytes";
      Buffer.add_char b 'S';
      Buffer.add_uint16_be b (String.length label);
      Buffer.add_string b label;
      add_f64 b comm;
      add_f64 b comp;
      add_f64 b mem;
      add_f64 b arrival
  | Init { capacity; policy; queue_limit; binary } ->
      Buffer.add_char b 'I';
      add_f64 b capacity;
      let name = Engine.policy_name policy in
      Buffer.add_uint8 b (String.length name);
      Buffer.add_string b name;
      Buffer.add_int32_be b
        (Int32.of_int (match queue_limit with None -> 0 | Some q -> q));
      Buffer.add_uint8 b (if binary then 1 else 0)
  | Poll -> Buffer.add_char b 'P'
  | Entries -> Buffer.add_char b 'E'
  | Stats -> Buffer.add_char b 'T'
  | Drain -> Buffer.add_char b 'D'
  | Quit -> Buffer.add_char b 'Q'
  | Shutdown -> Buffer.add_char b 'X'

let encode_request_frame requests =
  let b = Buffer.create 64 in
  List.iter (encode_request b) requests;
  frame (Buffer.contents b)

(* Validation mirroring the text parser, so a value that would have
   been ERR parse as text is ERR parse as binary too. *)
let check_float ~what ~kind v =
  if Float.is_nan v || v = Float.infinity || v = Float.neg_infinity then
    Error (Printf.sprintf "%s: must be finite" what)
  else
    match kind with
    | `Nonneg when v < 0.0 ->
        Error (Printf.sprintf "%s: must be non-negative (%g)" what v)
    | `Pos when v <= 0.0 -> Error (Printf.sprintf "%s: must be positive (%g)" what v)
    | _ -> Ok v

exception Truncated

let decode_requests payload =
  let n = String.length payload in
  let pos = ref 0 in
  let need k = if n - !pos < k then raise Truncated in
  let f64 ~what ~kind =
    need 8;
    let v = Int64.float_of_bits (String.get_int64_be payload !pos) in
    pos := !pos + 8;
    check_float ~what ~kind v
  in
  let decode_one () =
    let tag = payload.[!pos] in
    incr pos;
    match tag with
    | 'S' ->
        need 2;
        let label_len = String.get_uint16_be payload !pos in
        pos := !pos + 2;
        need label_len;
        let label = String.sub payload !pos label_len in
        pos := !pos + label_len;
        (* consume every field before validating any, so a value error
           leaves [pos] at the next request and stays recoverable *)
        let comm = f64 ~what:"comm" ~kind:`Nonneg in
        let comp = f64 ~what:"comp" ~kind:`Nonneg in
        let mem = f64 ~what:"mem" ~kind:`Nonneg in
        let arrival = f64 ~what:"arrival" ~kind:`Nonneg in
        let ( let* ) = Result.bind in
        let* comm = comm in
        let* comp = comp in
        let* mem = mem in
        let* arrival = arrival in
        if label = "" then Error "label: must be non-empty"
        else Ok (Submit { label; comm; comp; mem; arrival })
    | 'I' ->
        let capacity = f64 ~what:"capacity" ~kind:`Pos in
        need 1;
        let name_len = Char.code payload.[!pos] in
        incr pos;
        need name_len;
        let name = String.sub payload !pos name_len in
        pos := !pos + name_len;
        need 5;
        let queue = Int32.to_int (String.get_int32_be payload !pos) in
        pos := !pos + 4;
        let binary = payload.[!pos] <> '\000' in
        incr pos;
        let ( let* ) = Result.bind in
        let* capacity = capacity in
        let* policy =
          match Engine.policy_of_name name with
          | Some p -> Ok p
          | None -> Error (Printf.sprintf "unknown policy %S" name)
        in
        let* queue_limit =
          if queue < 0 then
            Error (Printf.sprintf "queue-limit: not a positive integer (%d)" queue)
          else Ok (if queue = 0 then None else Some queue)
        in
        Ok (Init { capacity; policy; queue_limit; binary })
    | 'P' -> Ok Poll
    | 'E' -> Ok Entries
    | 'T' -> Ok Stats
    | 'D' -> Ok Drain
    | 'Q' -> Ok Quit
    | 'X' -> Ok Shutdown
    | c -> raise (Failure (Printf.sprintf "unknown request tag 0x%02x" (Char.code c)))
  in
  match
    let items = ref [] in
    while !pos < n do
      items := decode_one () :: !items
    done;
    List.rev !items
  with
  | items -> Ok items
  | exception Truncated -> Error "truncated request frame"
  | exception Failure msg -> Error msg

(* One response frame written straight into the connection's output
   buffer: no intermediate payload string, no frame string — the only
   copies are each line's bytes landing in a chunk. *)
let encode_response_frame_into buf lines =
  let payload_len =
    List.fold_left (fun acc line -> acc + 4 + String.length line) 0 lines
  in
  Iobuf.add_u32_be buf payload_len;
  List.iter
    (fun line ->
      Iobuf.add_u32_be buf (String.length line);
      Iobuf.add_string buf line)
    lines

let decode_responses payload =
  let n = String.length payload in
  let rec go pos acc =
    if pos = n then Ok (List.rev acc)
    else if n - pos < 4 then Error "truncated response frame"
    else
      let len = Int32.to_int (String.get_int32_be payload pos) in
      if len < 0 || n - pos - 4 < len then Error "truncated response frame"
      else go (pos + 4 + len) (String.sub payload (pos + 4) len :: acc)
  in
  go 0 []
