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
