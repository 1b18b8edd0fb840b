(* What every workload shares: the inputs' size and capacity, the
   scratch directory, child processes, and the host measurements taken
   around a workload. *)

let capacity_factor = 1.5
let hf_traces = 150
let ccsd_traces = 10

(* Processes in the whole CCSD run, of which [ccsd_traces] are kept, and
   the generator seed that fixes its tiling (see [generate_ccsd]). *)
let ccsd_processes = 150
let ccsd_generator_seed = 20190805

(* Set-ups timed by a traced run, each in a fresh process, and server
   starts timed before each serve-hf round; the median is reported. A
   server start costs milliseconds, a CCSD load 20 ms, an HF load 0.3 s. *)
let server_setup_reps = 5
let setup_reps = function "cached-ccsd" -> 15 | _ -> 7

let time f =
  let t0 = Spans.now () in
  let v = f () in
  (v, Spans.now () -. t0)

let median xs = Dt_stats.Descriptive.median (Array.of_list xs)
let mean xs = Dt_stats.Descriptive.mean (Array.of_list xs)

(* ---- child processes: every one started is waited for ---- *)

let children = ref []

let spawn ?(stdout = Unix.stderr) prog args =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout Unix.stderr
  in
  children := pid :: !children;
  pid

let forget pid = children := List.filter (( <> ) pid) !children

(* Wait at most [timeout] seconds, then kill. [true] on exit code 0. The
   polling interval grows to 50 ms, so that waiting out a long child
   hardly wakes this process. *)
let wait ?(timeout = 120.0) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go pause =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          false
        end
        else begin
          Unix.sleepf pause;
          go (Float.min 0.05 (2.0 *. pause))
        end
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pause
  in
  let ok = go 0.001 in
  forget pid;
  ok

let reap_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let run_child prog args =
  if not (wait (spawn prog args)) then
    failwith (Printf.sprintf "%s %s failed" prog (String.concat " " args))

(* ---- scratch directory, inside the checkout ---- *)

let out_dir = "_perfbench"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  List.fold_left
    (fun acc part ->
      let dir = if acc = "" then part else Filename.concat acc part in
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      dir)
    "" (String.split_on_char '/' path)
  |> ignore

(* The program's own binary, built next to this one by run.sh. *)
let dtsched () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/dtsched.exe"

(* The workload's inputs, made by the program's own generator from the
   seed; only the files reach the code under test. *)
let generate ~kernel ~traces ~seed ~dir =
  run_child (dtsched ())
    [ "gen"; "-k"; kernel; "-n"; string_of_int traces; "--seed"; string_of_int seed;
      "-o"; dir ]

let count_tasks path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go n =
        match input_line ic with
        | line -> go (if String.length line > 0 && line.[0] <> '#' then n + 1 else n)
        | exception End_of_file -> n
      in
      go 0)

(* CCSD inputs. The generator's seed draws the molecule's tiling, which
   all processes share, and each process's task count (300 to 800); the
   cached path is quadratic in the count and sensitive to the tiling, so
   taking the first [keep] processes of the run's seed made the work, not
   the code, vary from seed to seed. The tiling is therefore that of the
   default seed, all [traces] processes are generated, and the run's seed
   picks one process from each of [keep] equal slices of the size
   ranking. Of [ccsd_draws] such picks, the one whose summed squared task
   count is closest to the expected sum is kept: every seed gets
   different processes and about the same work. *)
let ccsd_draws = 64

let generate_ccsd ~traces ~keep ~seed ~dir =
  generate ~kernel:"ccsd" ~traces ~seed:ccsd_generator_seed ~dir;
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace")
    |> List.map (fun f -> (count_tasks (Filename.concat dir f), f))
    |> List.sort compare |> Array.of_list
  in
  let slice = Array.length files / keep in
  let cost i = float_of_int (fst files.(i)) ** 2.0 in
  let expected =
    List.init (keep * slice) cost |> List.fold_left ( +. ) 0.0 |> fun c -> c /. float_of_int slice
  in
  let draw d =
    Array.init keep (fun k ->
        (k * slice) + Random.State.int (Random.State.make [| seed; d; k |]) slice)
  in
  let off p = Float.abs (Array.fold_left (fun c i -> c +. cost i) 0.0 p -. expected) in
  let best =
    List.fold_left
      (fun best d -> let p = draw d in if off p < off best then p else best)
      (draw 0)
      (List.init (ccsd_draws - 1) (fun d -> d + 1))
  in
  Array.iteri
    (fun i (_, f) -> if not (Array.mem i best) then Sys.remove (Filename.concat dir f))
    files;
  Printf.printf "  ccsd processes: %s tasks (sum of squares %.4g, expected %.4g)\n%!"
    (String.concat " " (Array.to_list (Array.map (fun i -> string_of_int (fst files.(i))) best)))
    (Array.fold_left (fun c i -> c +. cost i) 0.0 best)
    expected

(* ---- host measurements ---- *)

(* VmHWM of a process: its peak resident set, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
      in
      find ())

(* A fixed CPU loop, timed before and after each workload so that a run
   taken during host contention shows. Recorded, never used to drop a
   run. *)
let calibrate_ms () =
  let _, dt =
    time (fun () ->
        let x = ref 0x2545F491 in
        for _ = 1 to 50_000_000 do
          x := (!x * 0x5851F42D4C957F2D) + 0x14057B7EF767814F
        done;
        Sys.opaque_identity !x)
  in
  dt *. 1e3

let nproc () = Domain.recommended_domain_count ()
