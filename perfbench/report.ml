(* The run's report: readable lines as the run goes, then the one JSON
   object the last line of standard output must be. *)

type t = {
  mutable metrics : (string * float * string) list; (* reverse order *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let create () = { metrics = []; attempted = 0; failed = 0; problems = [] }
let say fmt = Printf.ksprintf (fun s -> print_endline s) fmt

let metric r ?(detail = "") name unit value =
  say "  %-34s %14.6g %-6s %s" name value unit detail;
  if Float.is_finite value then r.metrics <- (name, value, unit) :: r.metrics
  else r.problems <- Printf.sprintf "%s is not finite" name :: r.problems

(* [attempted] operations of which [failed] failed their output check. *)
let count r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

let problem r fmt =
  Printf.ksprintf
    (fun s ->
      say "  CHECK FAILED: %s" s;
      r.problems <- s :: r.problems)
    fmt

(* Prints the result line and returns the exit code. The metrics must be
   exactly [expected]. *)
let finish r ~expected =
  let names = List.map (fun (name, _, _) -> name) r.metrics in
  List.iter
    (fun name -> if not (List.mem name names) then problem r "%s was not measured" name)
    expected;
  List.iter
    (fun name -> if not (List.mem name expected) then problem r "%s is not in the manifest" name)
    names;
  let correct = r.problems = [] && r.failed = 0 && r.attempted > 0 in
  say "  failed_share = %d / %d%s" r.failed r.attempted
    (if correct then "" else "  (output checks FAILED)");
  let metrics =
    List.rev_map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed (String.concat ", " metrics);
  if correct then 0 else 1
