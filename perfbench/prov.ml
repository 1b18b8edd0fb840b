(* Provenance stamped on every output: which code ran, on what host, with
   which seed. The checkout a run happens in need not be a git
   repository, so a digest of the sources identifies the code too. *)

let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      let out = try Some (input_line ic) with End_of_file -> Some "" in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> out | _ -> None)

(* Only a repository rooted at the working directory counts: a checkout
   nested in some other repository must not borrow that one's commit. *)
let git_commit_and_dirty () =
  let cwd = Sys.getcwd () in
  match command_line "git rev-parse --show-toplevel" with
  | Some top when (try Unix.realpath top = Unix.realpath cwd with _ -> false) -> (
      match command_line "git rev-parse HEAD" with
      | Some commit ->
          let dirty =
            match command_line "git status --porcelain --untracked-files=no | head -1" with
            | Some "" -> "false"
            | Some _ -> "true"
            | None -> "unknown"
          in
          (commit, dirty)
      | None -> ("none", "unknown"))
  | _ -> ("none", "unknown")

let source_dirs = [ "lib"; "bin"; "perfbench" ]

let source_digest () =
  let files = ref [] in
  let rec walk dir =
    Array.iter
      (fun f ->
        let path = Filename.concat dir f in
        if Sys.is_directory path then walk path
        else if
          List.exists (Filename.check_suffix f) [ ".ml"; ".mli"; ".c"; ".sh" ] || f = "dune"
        then files := path :: !files)
      (try Sys.readdir dir with Sys_error _ -> [||])
  in
  List.iter walk source_dirs;
  List.sort String.compare !files
  |> List.map (fun f -> f ^ Digest.to_hex (Digest.file f))
  |> String.concat "" |> Digest.string |> Digest.to_hex
  |> fun h -> String.sub h 0 12

let stamp ~workload ~seed ~trace ~pool_workers =
  let commit, dirty = git_commit_and_dirty () in
  [
    ("workload", workload);
    ("seed", string_of_int seed);
    ("traced", string_of_bool trace);
    ("commit", commit);
    ("dirty", dirty);
    ("source", source_digest ());
    ("nproc", string_of_int (Work.nproc ()));
    ("pool_workers", string_of_int pool_workers);
    ("ocaml", Sys.ocaml_version);
  ]
