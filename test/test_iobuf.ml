(* Iobuf: the chunked buffer under the zero-copy service path. Unit
   tests force chunk boundaries with tiny chunk sizes; the QCheck model
   test runs arbitrary append/advance/read/peek interleavings against a
   plain-string reference and demands byte equality after every step. *)

module Iobuf = Dt_runtime.Iobuf

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* iovec slices concatenated must spell out exactly the pending bytes *)
let iovec_concat buf =
  let iovs = Iobuf.iovecs ~max:max_int buf in
  let b = Buffer.create 64 in
  Array.iter
    (fun (bytes, off, len) ->
      Alcotest.(check bool) "iovec slice has positive length" true (len > 0);
      Buffer.add_subbytes b bytes off len)
    iovs;
  Buffer.contents b

let basics () =
  let buf = Iobuf.create ~chunk_size:16 () in
  Alcotest.(check bool) "fresh buffer is empty" true (Iobuf.is_empty buf);
  Iobuf.add_string buf "hello, ";
  Iobuf.add_string buf (String.make 40 'x');
  (* spans three 16-byte chunks *)
  Iobuf.add_char buf '!';
  check_int "length counts across chunks" 48 (Iobuf.length buf);
  check_str "contents crosses chunk boundaries"
    ("hello, " ^ String.make 40 'x' ^ "!")
    (Iobuf.contents buf);
  check_str "iovecs = contents" (Iobuf.contents buf) (iovec_concat buf);
  Iobuf.advance buf 7;
  check_str "advance consumes from the front"
    (String.make 40 'x' ^ "!")
    (Iobuf.contents buf);
  check_str "read_string copies and consumes" (String.make 40 'x')
    (Iobuf.read_string buf 40);
  check_str "tail survives" "!" (Iobuf.contents buf);
  Iobuf.clear buf;
  Alcotest.(check bool) "clear empties" true (Iobuf.is_empty buf);
  (* the cleared buffer is reusable, chunks and all *)
  Iobuf.add_string buf "again";
  check_str "reuse after clear" "again" (Iobuf.contents buf)

let u32_at_boundaries () =
  (* a u32 written at every offset around a 16-byte chunk boundary must
     peek back identically, including the byte-straddling cases *)
  List.iter
    (fun off ->
      List.iter
        (fun v ->
          let buf = Iobuf.create ~chunk_size:16 () in
          Iobuf.add_string buf (String.make off 'x');
          Iobuf.add_u32_be buf v;
          Iobuf.advance buf off;
          check_int
            (Printf.sprintf "u32 %#x at offset %d" v off)
            (v land 0xffffffff) (Iobuf.peek_u32_be buf);
          (* peek did not consume *)
          check_int "length still 4" 4 (Iobuf.length buf))
        [ 0; 1; 0xdeadbeef; 0xffffffff; 0x01020304 ])
    [ 0; 12; 13; 14; 15; 16 ]

let index_char_across_chunks () =
  let buf = Iobuf.create ~chunk_size:16 () in
  Iobuf.add_string buf (String.make 30 'a');
  Iobuf.add_char buf '\n';
  Iobuf.add_string buf "rest";
  Alcotest.(check (option int))
    "newline found across the boundary" (Some 30)
    (Iobuf.index_char buf ~from:0 '\n');
  Alcotest.(check (option int))
    "resumed scan from a cursor" (Some 30)
    (Iobuf.index_char buf ~from:25 '\n');
  Alcotest.(check (option int))
    "scan past the match misses it" None
    (Iobuf.index_char buf ~from:31 '\n');
  Alcotest.(check (option int))
    "from beyond length is allowed" None
    (Iobuf.index_char buf ~from:1000 '\n');
  (* consuming shifts offsets *)
  Iobuf.advance buf 10;
  Alcotest.(check (option int))
    "offsets are relative to the read cursor" (Some 20)
    (Iobuf.index_char buf ~from:0 '\n')

let iovecs_max () =
  let buf = Iobuf.create ~chunk_size:16 () in
  Iobuf.add_string buf (String.make 100 'y');
  (* 100 bytes over 16-byte chunks = 7 chunks *)
  check_int "unbounded iovec count" 7
    (Array.length (Iobuf.iovecs ~max:max_int buf));
  let capped = Iobuf.iovecs ~max:3 buf in
  check_int "max caps the slice count" 3 (Array.length capped);
  let visible =
    Array.fold_left (fun a (_, _, len) -> a + len) 0 capped
  in
  check_int "capped iovecs expose whole chunks" 48 visible

let fill_from_pipe () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let payload = String.init 100 (fun i -> Char.chr (33 + (i mod 90))) in
      let buf = Iobuf.create ~chunk_size:16 () in
      Iobuf.add_string buf "pre";
      assert (Unix.write_substring w payload 0 100 = 100);
      Unix.close w;
      let total = ref 0 in
      let rec drain () =
        let n = Iobuf.fill_from buf r in
        if n > 0 then begin
          total := !total + n;
          drain ()
        end
      in
      drain ();
      check_int "fill_from read everything" 100 !total;
      check_str "pipe bytes landed after the existing content"
        ("pre" ^ payload) (Iobuf.contents buf);
      check_int "EOF reads 0 again" 0 (Iobuf.fill_from buf r))

(* Model test: an Iobuf with a tiny chunk size against a plain string.
   Every operation is applied to both; length, contents, iovec concat,
   and the peeks must agree after each step. *)
type op =
  | Add of string
  | Add_char of char
  | Add_u32 of int
  | Advance of int (* permille of pending length *)
  | Read of int (* permille *)
  | Clear

let op_gen =
  QCheck2.Gen.(
    let small_string =
      string_size ~gen:(char_range 'a' 'z') (int_range 0 40)
    in
    frequency
      [
        (4, map (fun s -> Add s) small_string);
        (2, map (fun c -> Add_char c) printable);
        (2, map (fun v -> Add_u32 v) (int_bound 0xffffffff));
        (3, map (fun p -> Advance p) (int_bound 1000));
        (3, map (fun p -> Read p) (int_bound 1000));
        (1, return Clear);
      ])

let ops_print ops =
  String.concat "; "
    (List.map
       (function
         | Add s -> Printf.sprintf "Add %S" s
         | Add_char c -> Printf.sprintf "Add_char %C" c
         | Add_u32 v -> Printf.sprintf "Add_u32 %#x" v
         | Advance p -> Printf.sprintf "Advance %d‰" p
         | Read p -> Printf.sprintf "Read %d‰" p
         | Clear -> "Clear")
       ops)

let u32_string v =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int v);
  Bytes.to_string b

let prop_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"iobuf = string model under arbitrary op interleavings"
       ~print:(fun (cs, ops) -> Printf.sprintf "chunk_size=%d: %s" cs (ops_print ops))
       QCheck2.Gen.(pair (int_range 16 48) (list_size (int_range 1 60) op_gen))
       (fun (chunk_size, ops) ->
         let buf = Iobuf.create ~chunk_size () in
         let expected = ref "" in
         let fail : 'a. ('a, Format.formatter, unit, unit) format4 -> 'a =
          fun fmt -> QCheck2.Test.fail_reportf fmt
         in
         List.iter
           (fun op ->
             (match op with
             | Add s ->
                 Iobuf.add_string buf s;
                 expected := !expected ^ s
             | Add_char c ->
                 Iobuf.add_char buf c;
                 expected := !expected ^ String.make 1 c
             | Add_u32 v ->
                 Iobuf.add_u32_be buf v;
                 expected := !expected ^ u32_string v
             | Advance permille ->
                 let n = String.length !expected * permille / 1000 in
                 Iobuf.advance buf n;
                 expected :=
                   String.sub !expected n (String.length !expected - n)
             | Read permille ->
                 let n = String.length !expected * permille / 1000 in
                 let got = Iobuf.read_string buf n in
                 let want = String.sub !expected 0 n in
                 expected :=
                   String.sub !expected n (String.length !expected - n);
                 if got <> want then
                   fail "read_string %d: got %S, want %S" n got want
             | Clear ->
                 Iobuf.clear buf;
                 expected := "");
             let e = !expected in
             if Iobuf.length buf <> String.length e then
               fail "length %d, model %d" (Iobuf.length buf) (String.length e);
             if Iobuf.contents buf <> e then
               fail "contents %S, model %S" (Iobuf.contents buf) e;
             if iovec_concat buf <> e then
               fail "iovecs %S, model %S" (iovec_concat buf) e;
             if String.length e > 0 && Iobuf.peek_byte buf 0 <> e.[0] then
               fail "peek_byte 0 mismatch";
             if String.length e > 0 then begin
               let last = String.length e - 1 in
               if Iobuf.peek_byte buf last <> e.[last] then
                 fail "peek_byte last mismatch"
             end;
             if String.length e >= 4 then begin
               let want =
                 (Char.code e.[0] lsl 24)
                 lor (Char.code e.[1] lsl 16)
                 lor (Char.code e.[2] lsl 8)
                 lor Char.code e.[3]
               in
               if Iobuf.peek_u32_be buf <> want then
                 fail "peek_u32_be %d, model %d" (Iobuf.peek_u32_be buf) want
             end;
             let model_index from c =
               match String.index_from_opt e (min from (String.length e)) c with
               | exception Invalid_argument _ -> None
               | r -> r
             in
             List.iter
               (fun c ->
                 List.iter
                   (fun from ->
                     if Iobuf.index_char buf ~from c <> model_index from c then
                       fail "index_char %C from %d diverged" c from)
                   [ 0; String.length e / 2 ])
               [ 'a'; 'q' ])
           ops;
         true))

let suite =
  [
    Alcotest.test_case "append, advance, read across chunks" `Quick basics;
    Alcotest.test_case "u32 spanning chunk boundaries" `Quick u32_at_boundaries;
    Alcotest.test_case "index_char across chunks and cursors" `Quick
      index_char_across_chunks;
    Alcotest.test_case "iovecs honour max" `Quick iovecs_max;
    Alcotest.test_case "fill_from reads a pipe into the tail" `Quick
      fill_from_pipe;
    prop_model;
  ]
