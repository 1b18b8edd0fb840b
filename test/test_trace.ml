(* dt_trace: file format roundtrips and workload characteristics. *)

let check_float = Alcotest.(check (float 1e-12))

let sample_tasks =
  [
    Dt_core.Task.make ~id:0 ~label:"alpha" ~comm:1.5 ~comp:2.25 ();
    Dt_core.Task.make ~id:1 ~label:"beta" ~comm:0.125 ~comp:0.0 ~mem:7.5 ();
    Dt_core.Task.make ~id:2 ~label:"gamma" ~comm:3.0 ~comp:1.0 ();
  ]

let roundtrip_memory () =
  let t = Dt_trace.Trace.make ~name:"unit" sample_tasks in
  let buf = Filename.temp_file "dtsched" ".trace" in
  let oc = open_out buf in
  Dt_trace.Trace.write oc t;
  close_out oc;
  let t' = Dt_trace.Trace.load buf in
  Sys.remove buf;
  Alcotest.(check string) "name" "unit" t'.Dt_trace.Trace.name;
  Alcotest.(check bool) "tasks preserved" true
    (List.for_all2 Dt_core.Task.equal t.Dt_trace.Trace.tasks t'.Dt_trace.Trace.tasks)

(* Malformed input must come back as a located error (line number +
   message); in particular no [Failure] from [float_of_string] and no
   [Invalid_argument] from [Task.make] may escape the parser. *)
let bad_streams () =
  let parse s =
    let path = Filename.temp_file "dtsched" ".trace" in
    let oc = open_out path in
    output_string oc s;
    close_out oc;
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () -> Dt_trace.Trace.load_result path)
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
    at 0
  in
  let check_error name input ~line ~grep =
    match parse input with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" name
    | Error e ->
        Alcotest.(check int) (name ^ ": line") line e.Dt_trace.Trace.line;
        let msg = Dt_trace.Trace.parse_error_to_string e in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S mentions %S" name msg grep)
          true (contains msg grep)
  in
  check_error "empty" "" ~line:0 ~grep:"empty stream";
  check_error "bad header" "nonsense\n" ~line:1 ~grep:"bad header";
  check_error "truncated record" "# dtsched-trace v1 x\n1\t2\n" ~line:2 ~grep:"5 tab-separated";
  check_error "non-numeric field" "# dtsched-trace v1 x\n0\tt\tabc\t1\t1\n" ~line:2
    ~grep:"not a number";
  check_error "negative MC" "# dtsched-trace v1 x\n0\tt\t1\t1\t-3\n" ~line:2
    ~grep:"non-negative";
  check_error "bad id" "# dtsched-trace v1 x\nx\tt\t1\t1\t1\n" ~line:2 ~grep:"not an integer";
  check_error "NaN field" "# dtsched-trace v1 x\n0\tt\tnan\t1\t1\n" ~line:2 ~grep:"NaN";
  check_error "located on later line"
    "# dtsched-trace v1 x\n0\tt\t1\t1\t1\n1\tu\t1\t1\t1\n2\tv\t1\t?\t1\n" ~line:4
    ~grep:"not a number";
  (* the raising wrappers carry the same located message *)
  (match
     let path = Filename.temp_file "dtsched" ".trace" in
     let oc = open_out path in
     output_string oc "# dtsched-trace v1 x\n0\tt\tabc\t1\t1\n";
     close_out oc;
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         match Dt_trace.Trace.load path with
         | exception Failure msg -> Some msg
         | _ -> None)
   with
  | Some msg -> Alcotest.(check bool) "load Failure is located" true (contains msg "line 2")
  | None -> Alcotest.fail "load: expected Failure")

let set_roundtrip () =
  let dir = Filename.temp_file "dtsched" "" in
  Sys.remove dir;
  let lists = [| sample_tasks; List.tl sample_tasks |] in
  let set = Dt_trace.Trace.of_task_lists ~prefix:"unit" lists in
  let paths = Dt_trace.Trace.save_set ~dir ~prefix:"unit" set in
  Alcotest.(check int) "two files" 2 (List.length paths);
  let back = Dt_trace.Trace.load_set ~dir ~prefix:"unit" in
  List.iter Sys.remove paths;
  Sys.rmdir dir;
  Alcotest.(check int) "two traces" 2 (Array.length back);
  Alcotest.(check string) "order by process" "unit-p000" back.(0).Dt_trace.Trace.name

let instance_and_mc () =
  let t = Dt_trace.Trace.make ~name:"unit" sample_tasks in
  check_float "m_c" 7.5 (Dt_trace.Trace.min_capacity t);
  let i = Dt_trace.Trace.to_instance t ~capacity:8.0 in
  Alcotest.(check int) "keeps ids" 2
    (List.nth (Dt_core.Instance.task_list i) 2).Dt_core.Task.id

let workchar_consistency () =
  let t = Dt_trace.Trace.make ~name:"unit" sample_tasks in
  let c = Dt_trace.Workchar.of_trace t in
  check_float "sum comm" 4.625 c.Dt_trace.Workchar.sum_comm;
  check_float "sum comp" 3.25 c.Dt_trace.Workchar.sum_comp;
  Alcotest.(check bool) "norms at most 1" true
    (c.Dt_trace.Workchar.norm_comm <= 1.0 +. 1e-12
    && c.Dt_trace.Workchar.norm_comp <= 1.0 +. 1e-12);
  check_float "max + consistency" c.Dt_trace.Workchar.norm_sum
    (c.Dt_trace.Workchar.norm_comm +. c.Dt_trace.Workchar.norm_comp);
  let f = Dt_trace.Workchar.max_overlap_fraction c in
  Alcotest.(check bool) "overlap fraction in [0, 0.5]" true (f >= 0.0 && f <= 0.5)

let suite =
  [
    Alcotest.test_case "write/read roundtrip" `Quick roundtrip_memory;
    Alcotest.test_case "malformed streams" `Quick bad_streams;
    Alcotest.test_case "set save/load" `Quick set_roundtrip;
    Alcotest.test_case "instance and m_c" `Quick instance_and_mc;
    Alcotest.test_case "workload characteristics" `Quick workchar_consistency;
  ]

let set_roundtrip_preserves_tasks () =
  let dir = Filename.temp_file "dtsched" "" in
  Sys.remove dir;
  let lists = [| sample_tasks; List.tl sample_tasks |] in
  let set = Dt_trace.Trace.of_task_lists ~prefix:"deep" lists in
  let paths = Dt_trace.Trace.save_set ~dir ~prefix:"deep" set in
  let back = Dt_trace.Trace.load_set ~dir ~prefix:"deep" in
  List.iter Sys.remove paths;
  Sys.rmdir dir;
  Array.iteri
    (fun i t ->
      Alcotest.(check bool)
        (Printf.sprintf "trace %d tasks equal" i)
        true
        (List.for_all2 Dt_core.Task.equal t.Dt_trace.Trace.tasks
           back.(i).Dt_trace.Trace.tasks))
    set

let suite =
  suite @ [ Alcotest.test_case "set roundtrip preserves tasks" `Quick set_roundtrip_preserves_tasks ]

(* ------------------- v2 format and integrity fixes ------------------- *)

let parse_string s =
  let path = Filename.temp_file "dtsched" ".trace" in
  let oc = open_out path in
  output_string oc s;
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Dt_trace.Trace.load_result path)

let write_to_string t =
  let path = Filename.temp_file "dtsched" ".trace" in
  let oc = open_out path in
  Dt_trace.Trace.write oc t;
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let tiled_tasks =
  [
    Dt_core.Task.make ~id:0 ~label:"plain" ~comm:1.5 ~comp:2.25 ();
    Dt_core.Task.make ~id:1 ~label:"tiled" ~comm:3.0 ~comp:1.0 ~mem:4.0
      ~tiles:[ { Dt_core.Task.tile = 5; t_comm = 1.25; t_mem = 2.0 } ]
      ();
  ]

let v2_roundtrip () =
  let t = Dt_trace.Trace.make ~name:"v2 unit" tiled_tasks in
  let text = write_to_string t in
  Alcotest.(check bool) "v2 header" true
    (String.length text > 20 && String.sub text 0 20 = "# dtsched-trace v2 v");
  match parse_string text with
  | Error e -> Alcotest.failf "v2 reread failed: %s" (Dt_trace.Trace.parse_error_to_string e)
  | Ok t' ->
      Alcotest.(check bool) "tasks preserved with annotations" true
        (List.for_all2 Dt_core.Task.equal t.Dt_trace.Trace.tasks t'.Dt_trace.Trace.tasks)

let v1_emitted_when_flat () =
  let t = Dt_trace.Trace.make ~name:"flat" sample_tasks in
  let text = write_to_string t in
  Alcotest.(check bool) "annotation-free traces keep the v1 header" true
    (String.sub text 0 19 = "# dtsched-trace v1 ")

let integrity_errors () =
  let check_error name input ~line ~grep =
    match parse_string input with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" name
    | Error e ->
        Alcotest.(check int) (name ^ ": line") line e.Dt_trace.Trace.line;
        let msg = Dt_trace.Trace.parse_error_to_string e in
        let contains hay needle =
          let lh = String.length hay and ln = String.length needle in
          let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
          at 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S mentions %S" name msg grep)
          true (contains msg grep)
  in
  (* duplicate task ids silently corrupted per-id result arrays before *)
  check_error "duplicate id"
    "# dtsched-trace v1 x\n0\tt\t1\t1\t1\n1\tu\t1\t1\t1\n0\tv\t1\t1\t1\n" ~line:4
    ~grep:"duplicate task id 0";
  (* inf passed the NaN/negative guards before *)
  check_error "inf comm" "# dtsched-trace v1 x\n0\tt\tinf\t1\t1\n" ~line:2 ~grep:"finite";
  check_error "inf mem" "# dtsched-trace v1 x\n0\tt\t1\t1\tinfinity\n" ~line:2 ~grep:"finite";
  (* v2 records *)
  check_error "v2 truncated" "# dtsched-trace v2 x\n0\tt\t1\t1\t1\t-\n" ~line:2
    ~grep:"7 tab-separated";
  check_error "v2 bad triple" "# dtsched-trace v2 x\n0\tt\t1\t1\t1\t5:0.5\t-\n" ~line:2
    ~grep:"tile:comm:mem";
  check_error "v2 bad tile id" "# dtsched-trace v2 x\n0\tt\t1\t1\t1\tx:0.5:0.5\t-\n" ~line:2
    ~grep:"bad tile id";
  check_error "v2 share overflow" "# dtsched-trace v2 x\n0\tt\t1\t1\t1\t5:2:0.5\t-\n" ~line:2
    ~grep:"exceed";
  check_error "v2 on v1 header" "# dtsched-trace v1 x\n0\tt\t1\t1\t1\t-\t-\n" ~line:2
    ~grep:"5 tab-separated";
  (* the writes column is reserved: a triple there is no longer read *)
  check_error "v2 writes triple"
    "# dtsched-trace v2 x\n0\tt\t1\t1\t1\t-\t-\n1\tu\t1\t1\t2\t5:0.5:1\t9:0.5:1\n" ~line:3
    ~grep:"writes: reserved column"

let task_list_print tasks =
  String.concat "; " (List.map (fun t -> Format.asprintf "%a" Dt_core.Task.pp t) tasks)

let prop_trace_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"write/load round-trips task lists (v1 and v2)"
       ~print:task_list_print
       QCheck2.Gen.(
         let* n = int_range 0 8 in
         let* mk = list_repeat n (oneof [ Generators.task_gen; Generators.tiled_task_gen ]) in
         return (List.mapi (fun i f -> f i) mk))
       (fun tasks ->
         let t = Dt_trace.Trace.make ~name:"prop" tasks in
         match parse_string (write_to_string t) with
         | Error e ->
             QCheck2.Test.fail_reportf "reread failed: %s"
               (Dt_trace.Trace.parse_error_to_string e)
         | Ok t' -> List.equal Dt_core.Task.equal tasks t'.Dt_trace.Trace.tasks))

let suite =
  suite
  @ [
      Alcotest.test_case "v2 roundtrip with annotations" `Quick v2_roundtrip;
      Alcotest.test_case "flat traces stay v1" `Quick v1_emitted_when_flat;
      Alcotest.test_case "duplicate ids and non-finite fields" `Quick integrity_errors;
      prop_trace_roundtrip;
    ]

(* A path [Trace.load] cannot open or read is a [Failure] naming it, as
   a malformed trace is, never a [Sys_error]: the CLI reports both with
   exit 1. *)
let unreadable_paths () =
  let dir = Filename.temp_dir "dtsched" "" in
  let missing = Filename.concat dir "absent.trace" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (path, message) ->
          Alcotest.check_raises path (Failure (Printf.sprintf "Trace.load: %s: %s" path message))
            (fun () -> ignore (Dt_trace.Trace.load path)))
        [ (dir, "Is a directory"); (missing, "No such file or directory") ])

let suite =
  suite @ [ Alcotest.test_case "unreadable paths fail naming the path" `Quick unreadable_paths ]

(* ------------- the buffer reader against the line reader ------------- *)

let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* [Task.equal] takes 0. and -0. as equal; these compare every bit. *)
let same_task (a : Dt_core.Task.t) (b : Dt_core.Task.t) =
  let same_ref (r : Dt_core.Task.tile_ref) (s : Dt_core.Task.tile_ref) =
    r.Dt_core.Task.tile = s.Dt_core.Task.tile
    && same_float r.Dt_core.Task.t_comm s.Dt_core.Task.t_comm
    && same_float r.Dt_core.Task.t_mem s.Dt_core.Task.t_mem
  in
  a.Dt_core.Task.id = b.Dt_core.Task.id
  && String.equal a.Dt_core.Task.label b.Dt_core.Task.label
  && same_float a.Dt_core.Task.comm b.Dt_core.Task.comm
  && same_float a.Dt_core.Task.comp b.Dt_core.Task.comp
  && same_float a.Dt_core.Task.mem b.Dt_core.Task.mem
  && List.equal same_ref a.Dt_core.Task.tiles b.Dt_core.Task.tiles

let same_result a b =
  match (a, b) with
  | Ok (x : Dt_trace.Trace.t), Ok (y : Dt_trace.Trace.t) ->
      String.equal x.Dt_trace.Trace.name y.Dt_trace.Trace.name
      && List.equal same_task x.Dt_trace.Trace.tasks y.Dt_trace.Trace.tasks
  | Error (e : Dt_trace.Trace.parse_error), Error f -> e = f
  | _ -> false

let show_result = function
  | Ok (t : Dt_trace.Trace.t) ->
      Printf.sprintf "Ok %S: %s" t.Dt_trace.Trace.name (task_list_print t.Dt_trace.Trace.tasks)
  | Error e -> "Error " ^ Dt_trace.Trace.parse_error_to_string e

let reference_read path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Reference.Trace_reader.read_result ic)

let reference_parse text =
  let path = Filename.temp_file "dtsched" ".trace" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> reference_read path)

(* The bytes the edits draw from: separators, number syntax and digits. *)
let edit_alphabet = "\t \n\r,:-+.e_x#0123456789inf"

(* One random edit: a byte replaced, inserted or deleted, a line dropped
   or doubled, or the last newline dropped. *)
let edit_gen =
  QCheck2.Gen.(
    let* kind = int_bound 5 and* at = nat
    and* c = map (String.get edit_alphabet) (int_bound (String.length edit_alphabet - 1)) in
    return (fun s ->
        let n = String.length s in
        let lines () = String.split_on_char '\n' s in
        let rejoin = String.concat "\n" in
        match kind with
        | 0 when n > 0 -> String.mapi (fun i x -> if i = at mod n then c else x) s
        | 1 ->
            let i = at mod (n + 1) in
            String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
        | 2 when n > 0 ->
            let i = at mod n in
            String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
        | 3 ->
            let ls = lines () in
            let k = at mod List.length ls in
            rejoin (List.filteri (fun i _ -> i <> k) ls)
        | 4 ->
            let ls = lines () in
            let k = at mod List.length ls in
            rejoin (List.concat (List.mapi (fun i l -> if i = k then [ l; l ] else [ l ]) ls))
        | 5 when n > 0 && s.[n - 1] = '\n' -> String.sub s 0 (n - 1)
        | _ -> s))

let edited_trace_gen =
  QCheck2.Gen.(
    let* n = int_range 0 8 in
    let* mk = list_repeat n (oneof [ Generators.task_gen; Generators.tiled_task_gen ]) in
    let* edits = list_size (int_bound 3) edit_gen in
    let text = write_to_string (Dt_trace.Trace.make ~name:"prop" (List.mapi (fun i f -> f i) mk)) in
    return (List.fold_left (fun s edit -> edit s) text edits))

let prop_parse_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000
       ~name:"parse = the line reader on written and edited traces, bit for bit"
       ~print:(Printf.sprintf "%S") edited_trace_gen (fun text ->
         let got = Dt_trace.Trace.parse text and want = reference_parse text in
         same_result got want
         || QCheck2.Test.fail_reportf "parse: %s\nline reader: %s" (show_result got)
              (show_result want)))

(* Hand-made texts on which the readers could part: several bad fields
   in one record (the first reported is the one the line reader met
   first), CRLF line ends, ids [int_of_string] reads, repeats after a
   descent, and the corners of the tiles and writes columns. *)
let reader_edges () =
  let v1 = "# dtsched-trace v1 x\n" and v2 = "# dtsched-trace v2 x\n" in
  let rec2 tiles writes = v2 ^ "0\tt\t4\t1\t4\t" ^ tiles ^ "\t" ^ writes ^ "\n" in
  List.iter
    (fun text ->
      Alcotest.(check bool) (Printf.sprintf "%S" text) true
        (same_result (Dt_trace.Trace.parse text) (reference_parse text)))
    ([
       ""; "\n"; "# dtsched-trace v1"; "# dtsched-trace v1 "; "# dtsched-trace v1  two words\n";
       "# dtsched-trace v3 x\n"; "# dtsched-trace v1 x\r\n0\tt\t1\t2\t3\r\n";
       v1 ^ "0\tt\t1\t2\t3\r\n"; v1 ^ "\r\n"; v1 ^ "0\tt\tabc\txyz\tqqq\n";
       v1 ^ "0\tt\t1\txyz\tqqq\n"; v1 ^ "0\tt\t-1\t-2\t-3\n"; v1 ^ "x\tt\tabc\t1\t1\n";
       v1 ^ "\n# note\n0\tt\t1\t2\t3"; v1 ^ "0\tt\t1\t2\t3\n\n\n1\tu\t1\t2\t3\n";
       v1 ^ "5\ta\t1\t1\t1\n3\tb\t1\t1\t1\n5\tc\t1\t1\t1\n";
       v1 ^ "1\ta\t1\t1\t1\n2\tb\t1\t1\t1\n2\tc\t1\t1\t1\n";
       v1 ^ "3\ta\t1\t1\t1\n1\tb\t1\t1\t1\n2\tc\t1\t1\t1\n";
       v1 ^ "0\tt\t1e400\t1\t1\n"; v1 ^ "0\tt\t1\t-1e400\t1\n"; v1 ^ "0\tt\t-0\t-0.0\t0\n";
       v1 ^ "0\tt\t0x1.8p+0\t1_000.5\t 1\n"; v1 ^ "0\tt\t-nan\t1\t1\n";
       v1 ^ "0\tt\t1\t1\t1\t\n"; v1 ^ "0\t\t1\t1\t1\n"; v2 ^ "0\tt\t1\t1\t1\t-\n";
       rec2 "-" "-\r"; rec2 "-" "--"; rec2 "-" ""; rec2 "" "-"; rec2 "," "-"; rec2 "1:2:3," "-";
       rec2 "1:1:1,,2:1:1" "-"; rec2 "1:2" "-"; rec2 "1:2:3:4" "-"; rec2 "-1:1:1" "-";
       rec2 "x:1:1" "-"; rec2 "1:abc:xyz" "-"; rec2 "1:1:1,1:1:1" "-"; rec2 "1:9:1" "-";
       rec2 "-,1:1:1" "-"; rec2 "0x1f:1:1,+2:1:1" "-"; rec2 "1:1:1" "abc";
     ]
    @ List.map
        (fun id -> v1 ^ id ^ "\tt\t1\t1\t1\n")
        [
          "-5"; "0x10"; "1_0"; "+3"; "99999999999999999999"; "0000000000000000000001"; "";
          "123456789012345678"; "4611686018427387903"; "-4611686018427387904";
        ])

(* The traces [dtsched gen] writes at its default seed, HF and CCSD:
   [load_set] reads them as the line reader does. *)
let default_seed_traces () =
  let cluster = Dt_ga.Cluster.cascade and seed = 20190805 in
  List.iter
    (fun (prefix, lists) ->
      let dir = Filename.temp_dir "dtsched" "" in
      let set = Dt_trace.Trace.of_task_lists ~prefix lists in
      let paths = Dt_trace.Trace.save_set ~dir ~prefix set in
      Fun.protect
        ~finally:(fun () ->
          List.iter Sys.remove paths;
          Sys.rmdir dir)
        (fun () ->
          let loaded = Dt_trace.Trace.load_set ~dir ~prefix in
          Alcotest.(check int) (prefix ^ " traces") (List.length paths) (Array.length loaded);
          List.iteri
            (fun i path ->
              Alcotest.(check bool) (path ^ " as the line reader reads it") true
                (same_result (Ok loaded.(i)) (reference_read path)))
            paths))
    [
      ("hf", Dt_chem.Workload.hf_trace_set ~seed ~cluster ~nbf:3000 ());
      ("ccsd", Dt_chem.Workload.ccsd_trace_set ~seed ~cluster ~n_occ:29 ~n_virt:420 ());
    ]

(* ----------------------------- numbers ----------------------------- *)

let same_number a b =
  match (a, b) with
  | Some x, Some y -> same_float x y
  | None, None -> true
  | _ -> false

let show_number = function Some x -> Printf.sprintf "Some %h" x | None -> "None"

let agrees s =
  let got = Dt_trace.Decimal.of_string_opt s and want = float_of_string_opt s in
  same_number got want
  || QCheck2.Test.fail_reportf "%S: reader %s, float_of_string %s" s (show_number got)
       (show_number want)

(* Doubles of every kind: any bit pattern, subnormals, the decimal
   exponents the fast path serves, and integers beyond 2^53. *)
let double_gen =
  QCheck2.Gen.(
    let bits = map Int64.float_of_bits int64 in
    let with_exponent lo hi =
      let* e = int_range lo hi and* m = int64 in
      return
        (Int64.float_of_bits
           (Int64.logor (Int64.shift_left (Int64.of_int e) 52)
              (Int64.logand m 0x800F_FFFF_FFFF_FFFFL)))
    in
    let big_int =
      let* w = int_range (1 lsl 53) ((1 lsl 60) - 1) and* scaled = bool in
      return (if scaled then float_of_int w *. 1e-5 else float_of_int w)
    in
    oneof [ bits; with_exponent 0 0; with_exponent (1023 - 80) (1023 + 80); big_int ])

let renderings =
  [
    Printf.sprintf "%.17g"; Printf.sprintf "%.16g"; Printf.sprintf "%.15g"; Printf.sprintf "%g";
    Printf.sprintf "%.16e"; Printf.sprintf "%.18g"; Printf.sprintf "%h";
  ]

let prop_number_renderings =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:10_000
       ~name:"number reader = float_of_string on rendered doubles, bit for bit" ~print:(Printf.sprintf "%h")
       double_gen (fun x -> List.for_all (fun render -> agrees (render x)) renderings))

(* Strings over the edit alphabet, and number-shaped ones: sign, up to
   20 integer and fraction digits, an exponent. *)
let number_string_gen =
  QCheck2.Gen.(
    let digits k = string_size ~gen:numeral (int_bound k) in
    let opt g = oneof [ return ""; g ] in
    let shaped =
      let* sign = oneofl [ ""; "-"; "+" ]
      and* ip = digits 20
      and* fp = opt (map (( ^ ) ".") (digits 20))
      and* ex =
        opt
          (let* e = oneofl [ "e"; "E" ] and* s = oneofl [ ""; "-"; "+" ] and* d = digits 4 in
           return (e ^ s ^ d))
      in
      return (sign ^ ip ^ fp ^ ex)
    in
    let any =
      string_size
        ~gen:(map (String.get edit_alphabet) (int_bound (String.length edit_alphabet - 1)))
        (int_bound 12)
    in
    oneof [ shaped; any ])

let prop_number_strings =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20_000
       ~name:"number reader accepts what float_of_string accepts, with its bits"
       ~print:(Printf.sprintf "%S") number_string_gen agrees)

let number_edges () =
  let check s =
    Alcotest.(check bool)
      (Printf.sprintf "%S as float_of_string reads it" s)
      true
      (same_number (Dt_trace.Decimal.of_string_opt s) (float_of_string_opt s))
  in
  List.iter check
    [
      "9007199254740993"; "9007199254740995"; "1e22"; "1e23"; "4.9e-324";
      "2.2250738585072011e-308"; "1.7976931348623157e308"; "-0"; "-0.0"; "00001.5"; ".5"; "5.";
      "+1"; " 1"; "1 "; "0x1p3"; "1_000"; "inf"; "nan"; "1e"; "e5"; "."; "-"; "";
      "123456789012345678"; "1234567890123456789"; "999999999999999999"; "1000000000000000000";
      "0.123456789012345678e5"; "12345678901234567.89"; "9007199254740993e-22";
      "-9007199254740993e22"; "123456789012345678e-22"; "5.8697727460046158e-05";
      (* exact midpoints between two doubles: ties to even *)
      "4503599627370496.5"; "4503599627370497.5"; "2251799813685248.25";
      (* within 2^-40 ulp of a midpoint, found by a modular search: the
         FMA sum rounds the first five the wrong way, and the last three
         too when its error bound is taken as 0; the boundary test sends
         them all to float_of_string *)
      "9906433303328285e21"; "9099609126133300e21"; "10225509032975924e21";
      "48857996297512683e-20"; "24623752638439276e-20"; "44181152318817329e-22";
      "43482270615044627e-22"; "43249310047120393e-22";
    ];
  (* the cases whose value the check above takes from float_of_string *)
  let bits s v =
    Alcotest.(check bool) (Printf.sprintf "%S is %h" s v) true
      (same_number (Dt_trace.Decimal.of_string_opt s) (Some v))
  in
  bits "9007199254740993" 9007199254740992.0;
  bits "-0" (-0.0);
  bits " 1" 1.0;
  bits "1_000" 1000.0;
  Alcotest.(check bool) "\"1 \" is not a number" true (Dt_trace.Decimal.of_string_opt "1 " = None)

(* A file in the directory whose name is shorter than "<prefix>-p" is
   not a trace of the set (it made [String.sub] raise). *)
let short_names_in_set () =
  let dir = Filename.temp_dir "dtsched" "" in
  let path = Dt_trace.Trace.save ~dir (Dt_trace.Trace.make ~name:"hf-p000" sample_tasks) in
  let others = List.map (Filename.concat dir) [ "hfx"; "h"; "hf-" ] in
  List.iter (fun p -> close_out (open_out p)) others;
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove (path :: others);
      Sys.rmdir dir)
    (fun () ->
      let set = Dt_trace.Trace.load_set ~dir ~prefix:"hf" in
      Alcotest.(check (list string)) "the one trace" [ "hf-p000" ]
        (Array.to_list (Array.map (fun (t : Dt_trace.Trace.t) -> t.Dt_trace.Trace.name) set)))

let suite =
  suite
  @ [
      prop_parse_matches_reference;
      Alcotest.test_case "parse = the line reader on hand-made edge cases" `Quick reader_edges;
      Alcotest.test_case "default-seed HF and CCSD traces read as the line reader reads them"
        `Quick default_seed_traces;
      prop_number_renderings;
      prop_number_strings;
      Alcotest.test_case "number reader edge cases" `Quick number_edges;
      Alcotest.test_case "load_set skips names shorter than the prefix" `Quick short_names_in_set;
    ]
