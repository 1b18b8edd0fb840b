(* Provenance stamps for the machine-readable BENCH_*.json files: which
   commit produced the numbers, on which host. Successive PRs compare
   those files, so they must say where they came from. *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let hostname () = try Unix.gethostname () with Unix.Unix_error _ -> "unknown"

let git_commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when String.length line = 40 -> line
      | _ -> "unknown")

(* Whether tracked files differ from the commit: numbers measured on
   uncommitted changes must not pass for the commit's own. *)
let git_dirty () =
  match Unix.open_process_in "git status --porcelain --untracked-files=no 2>/dev/null" with
  | exception _ -> false
  | ic ->
      let out = In_channel.input_all ic in
      ignore (Unix.close_process_in ic);
      out <> ""

(* The common stamp fields, ready to splice into a JSON object. [cores]
   is Domain.recommended_domain_count: multi-core speedup numbers (and
   the gates that skip on single-core runners) are meaningless without
   knowing what hardware produced them. *)
let json_fields () =
  Printf.sprintf
    "  \"git_commit\": \"%s\",\n  \"dirty\": %b,\n  \"hostname\": \"%s\",\n  \"cores\": %d,\n"
    (json_escape (git_commit ()))
    (git_dirty ())
    (json_escape (hostname ()))
    (Domain.recommended_domain_count ())

(* Every BENCH_*.json artifact goes through here: open the file, emit the
   opening brace, the experiment name and the stamp, let the experiment
   write its own fields (without the closing brace), close the object and
   announce the artifact. *)
let write_artifact ~path ~experiment body =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"experiment\": \"%s\",\n" (json_escape experiment);
      output_string oc (json_fields ());
      body oc;
      output_string oc "}\n");
  Printf.printf "wrote %s\n" path
