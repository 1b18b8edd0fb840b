type t = {
  name : string;
  tasks : Dt_core.Task.t list;
}

let make ~name tasks = { name; tasks }

let size t = List.length t.tasks

let to_instance t ~capacity = Dt_core.Instance.make_keep_ids ~capacity t.tasks

let min_capacity t =
  List.fold_left (fun acc (tk : Dt_core.Task.t) -> Float.max acc tk.Dt_core.Task.mem) 0.0 t.tasks

(* v2 records append two columns: the input tiles as comma-separated
   [tile:comm:mem] triples, [-] when empty, and a reserved [writes]
   column that is always [-]. Traces whose tasks carry no tile
   annotations are written in the v1 format, which older readers still
   understand. *)
let refs_field refs =
  match refs with
  | [] -> "-"
  | refs ->
      String.concat ","
        (List.map
           (fun (r : Dt_core.Task.tile_ref) ->
             Printf.sprintf "%d:%.17g:%.17g" r.Dt_core.Task.tile r.Dt_core.Task.t_comm
               r.Dt_core.Task.t_mem)
           refs)

let write oc t =
  let tiled = List.exists Dt_core.Task.has_tiles t.tasks in
  if tiled then begin
    Printf.fprintf oc "# dtsched-trace v2 %s\n" t.name;
    Printf.fprintf oc "# id\tlabel\tcomm\tcomp\tmem\ttiles\twrites\n";
    List.iter
      (fun (tk : Dt_core.Task.t) ->
        Printf.fprintf oc "%d\t%s\t%.17g\t%.17g\t%.17g\t%s\t-\n" tk.Dt_core.Task.id
          tk.Dt_core.Task.label tk.Dt_core.Task.comm tk.Dt_core.Task.comp
          tk.Dt_core.Task.mem (refs_field tk.Dt_core.Task.tiles))
      t.tasks
  end
  else begin
    Printf.fprintf oc "# dtsched-trace v1 %s\n" t.name;
    Printf.fprintf oc "# id\tlabel\tcomm\tcomp\tmem\n";
    List.iter
      (fun (tk : Dt_core.Task.t) ->
        Printf.fprintf oc "%d\t%s\t%.17g\t%.17g\t%.17g\n" tk.Dt_core.Task.id
          tk.Dt_core.Task.label tk.Dt_core.Task.comm tk.Dt_core.Task.comp
          tk.Dt_core.Task.mem)
      t.tasks
  end

type parse_error = { line : int; message : string }

let parse_error_to_string e = Printf.sprintf "line %d: %s" e.line e.message

(* Parsing never lets [Failure] escape from a conversion: every malformed
   field — truncated record, non-numeric value, negative duration or
   memory — becomes a located [parse_error]. *)
let read_result ic =
  let lineno = ref 0 in
  let exception Bad of parse_error in
  let fail message = raise (Bad { line = !lineno; message }) in
  try
    let header =
      match input_line ic with
      | header ->
          incr lineno;
          header
      | exception End_of_file -> fail "empty stream"
    in
    let version, name =
      match String.split_on_char ' ' header with
      | "#" :: "dtsched-trace" :: "v1" :: rest when rest <> [] -> (1, String.concat " " rest)
      | "#" :: "dtsched-trace" :: "v2" :: rest when rest <> [] -> (2, String.concat " " rest)
      | _ -> fail "bad header (expected '# dtsched-trace v1|v2 <name>')"
    in
    let num what s =
      match float_of_string_opt s with
      | Some v when Float.is_nan v -> fail (what ^ ": NaN is not a value")
      | Some v when not (Float.is_finite v) ->
          fail (Printf.sprintf "%s: must be finite (got %s)" what s)
      | Some v when v < 0.0 ->
          fail (Printf.sprintf "%s: must be non-negative (got %s)" what s)
      | Some v -> v
      | None -> fail (Printf.sprintf "%s: not a number (got %S)" what s)
    in
    (* the tiles column of a v2 record: [-] or comma-separated
       [tile:comm:mem] triples *)
    let refs s =
      if s = "-" then []
      else
        List.map
          (fun triple ->
            match String.split_on_char ':' triple with
            | [ tile; t_comm; t_mem ] ->
                let tile =
                  match int_of_string_opt tile with
                  | Some v when v >= 0 -> v
                  | Some _ | None -> fail (Printf.sprintf "tiles: bad tile id (got %S)" tile)
                in
                {
                  Dt_core.Task.tile;
                  t_comm = num "tiles comm" t_comm;
                  t_mem = num "tiles mem" t_mem;
                }
            | _ -> fail (Printf.sprintf "tiles: expected tile:comm:mem (got %S)" triple))
          (String.split_on_char ',' s)
    in
    let tasks = ref [] in
    let seen = Hashtbl.create 64 in
    let int_id id =
      match int_of_string_opt id with
      | Some v -> v
      | None -> fail (Printf.sprintf "id: not an integer (got %S)" id)
    in
    let add_task ~id ~label ~comm ~comp ~mem ~tiles =
      let id = int_id id in
      (* a duplicate id would silently corrupt the flat per-id records of
         [Sim.run_two_orders] (the later task overwrites the earlier one's
         slot), so it is a hard parse error *)
      if Hashtbl.mem seen id then fail (Printf.sprintf "duplicate task id %d" id);
      Hashtbl.replace seen id ();
      tasks :=
        Dt_core.Task.make ~label ~mem:(num "mem" mem) ~tiles ~id
          ~comm:(num "comm" comm) ~comp:(num "comp" comp) ()
        :: !tasks
    in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         if String.length line > 0 && line.[0] <> '#' then
           match (version, String.split_on_char '\t' line) with
           | 1, [ id; label; comm; comp; mem ] -> add_task ~id ~label ~comm ~comp ~mem ~tiles:[]
           | 2, [ id; label; comm; comp; mem; tiles; "-" ] ->
               add_task ~id ~label ~comm ~comp ~mem ~tiles:(refs tiles)
           | 2, [ _; _; _; _; _; _; writes ] ->
               fail (Printf.sprintf "writes: reserved column, must be '-' (got %S)" writes)
           | v, fields ->
               fail
                 (Printf.sprintf "bad record: expected %d tab-separated fields, got %d"
                    (if v = 1 then 5 else 7)
                    (List.length fields))
       done
     with End_of_file -> ());
    Ok { name; tasks = List.rev !tasks }
  with
  | Bad e -> Error e
  | Invalid_argument message -> Error { line = !lineno; message }

let read ic =
  match read_result ic with
  | Ok t -> t
  | Error e -> failwith ("Trace.read: " ^ parse_error_to_string e)

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let save ~dir t =
  ensure_dir dir;
  let path = Filename.concat dir (t.name ^ ".trace") in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc t);
  path

let load_result path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_result ic)

(* Every failure names the path: [open_in]'s [Sys_error] message starts
   with it, a read's (a directory, an I/O error) does not. *)
let load path =
  let located = path ^ ": " in
  match load_result path with
  | Ok t -> t
  | Error e -> failwith ("Trace.load: " ^ located ^ parse_error_to_string e)
  | exception Sys_error message ->
      let message =
        if String.starts_with ~prefix:located message then message else located ^ message
      in
      failwith ("Trace.load: " ^ message)

let of_task_lists ~prefix lists =
  Array.mapi (fun i tasks -> make ~name:(Printf.sprintf "%s-p%03d" prefix i) tasks) lists

let save_set ~dir ~prefix traces =
  ignore prefix;
  Array.to_list (Array.map (fun t -> save ~dir t) traces)

let load_set ~dir ~prefix =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > String.length prefix
           && String.sub f 0 (String.length prefix + 2) = prefix ^ "-p"
           && Filename.check_suffix f ".trace")
    |> List.sort String.compare
  in
  Array.of_list (List.map (fun f -> load (Filename.concat dir f)) files)
