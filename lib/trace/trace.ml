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

(* The first [c] in [b.[i, e)], or [e]. Every search stops at the end of
   its line or field: an absent separator costs a pass over the line,
   not over the rest of the file. *)
let rec find b c i e = if i < e && Bytes.unsafe_get b i <> c then find b c (i + 1) e else i

(* The value of [b.[i, e)] when it is 1 to 18 decimal digits, else -1. *)
let rec digits b i e acc =
  if i = e then acc
  else
    let d = Char.code (Bytes.unsafe_get b i) - 48 in
    if d >= 0 && d <= 9 then digits b (i + 1) e ((acc * 10) + d) else -1

(* An id or a tile id: plain digits are read in place, anything else as
   [int_of_string] reads it. *)
let int_field b i e =
  let v = if e > i && e - i <= 18 then digits b i e 0 else -1 in
  if v >= 0 then Some v else int_of_string_opt (Bytes.sub_string b i (e - i))

(* Reads the trace in [b.[0, n)], line by line as [input_line] splits
   them. Parsing never lets [Failure] escape from a conversion: every
   malformed field (truncated record, non-numeric value, negative
   duration or memory) becomes a located [parse_error]. *)
let parse_bytes b n =
  let lineno = ref 0 in
  let exception Bad of parse_error in
  let fail message = raise (Bad { line = !lineno; message }) in
  let sub i e = Bytes.sub_string b i (e - i) in
  let dash i e = e = i + 1 && Bytes.get b i = '-' in
  let num what i e =
    match Decimal.of_bytes_opt b ~pos:i ~len:(e - i) with
    | Some v when Float.is_nan v -> fail (what ^ ": NaN is not a value")
    | Some v when not (Float.is_finite v) ->
        fail (Printf.sprintf "%s: must be finite (got %s)" what (sub i e))
    | Some v when v < 0.0 -> fail (Printf.sprintf "%s: must be non-negative (got %s)" what (sub i e))
    | Some v -> v
    | None -> fail (Printf.sprintf "%s: not a number (got %S)" what (sub i e))
  in
  (* the tiles column of a v2 record: [-] or comma-separated
     [tile:comm:mem] triples *)
  let rec refs i e =
    let stop = find b ',' i e in
    let c1 = find b ':' i stop in
    let c2 = find b ':' (min (c1 + 1) stop) stop in
    if c2 >= stop || find b ':' (c2 + 1) stop < stop then
      fail (Printf.sprintf "tiles: expected tile:comm:mem (got %S)" (sub i stop));
    let tile =
      match int_field b i c1 with
      | Some v when v >= 0 -> v
      | Some _ | None -> fail (Printf.sprintf "tiles: bad tile id (got %S)" (sub i c1))
    in
    let t_mem = num "tiles mem" (c2 + 1) stop in
    let t_comm = num "tiles comm" (c1 + 1) c2 in
    let r = { Dt_core.Task.tile; t_comm; t_mem } in
    r :: (if stop < e then refs (stop + 1) e else [])
  in
  let tasks = ref [] in
  (* Duplicate ids need no table while the ids ascend; at the first one
     that does not, a table of the ids so far takes over. *)
  let last = ref min_int and seen = ref None in
  let check_id id =
    match !seen with
    | None when id > !last -> last := id
    | _ ->
        let table =
          match !seen with
          | Some table -> table
          | None ->
              let table = Hashtbl.create 64 in
              List.iter (fun (t : Dt_core.Task.t) -> Hashtbl.replace table t.Dt_core.Task.id ()) !tasks;
              seen := Some table;
              table
        in
        (* a duplicate id would silently corrupt the flat per-id records of
           [Sim.run_two_orders] (the later task overwrites the earlier one's
           slot), so it is a hard parse error *)
        if Hashtbl.mem table id then fail (Printf.sprintf "duplicate task id %d" id);
        Hashtbl.replace table id ()
  in
  (* [tabs.(k)]: where field k of the current record ends, at a tab or
     (the last field) at the line's end; field k + 1 starts after it *)
  let tabs = Array.make 7 0 in
  let record version start eol ntabs =
    let fields = if version = 1 then 5 else 7 in
    if ntabs + 1 = fields then tabs.(ntabs) <- eol;
    if version = 2 && ntabs = 6 && not (dash (tabs.(5) + 1) eol) then
      fail (Printf.sprintf "writes: reserved column, must be '-' (got %S)" (sub (tabs.(5) + 1) eol));
    if ntabs + 1 <> fields then
      fail
        (Printf.sprintf "bad record: expected %d tab-separated fields, got %d" fields (ntabs + 1));
    let tiles =
      if version = 1 || dash (tabs.(4) + 1) tabs.(5) then []
      else refs (tabs.(4) + 1) tabs.(5)
    in
    let id =
      match int_field b start tabs.(0) with
      | Some v -> v
      | None -> fail (Printf.sprintf "id: not an integer (got %S)" (sub start tabs.(0)))
    in
    check_id id;
    (* a record with several bad numbers reports comp's, then comm's *)
    let comp = num "comp" (tabs.(2) + 1) tabs.(3) in
    let comm = num "comm" (tabs.(1) + 1) tabs.(2) in
    let mem = num "mem" (tabs.(3) + 1) tabs.(4) in
    let label = sub (tabs.(0) + 1) tabs.(1) in
    tasks := Dt_core.Task.make ~label ~mem ~tiles ~id ~comm ~comp () :: !tasks
  in
  try
    if n = 0 then fail "empty stream";
    let eol = find b '\n' 0 n in
    lineno := 1;
    let header = sub 0 eol in
    let version =
      if String.starts_with ~prefix:"# dtsched-trace v1 " header then 1
      else if String.starts_with ~prefix:"# dtsched-trace v2 " header then 2
      else fail "bad header (expected '# dtsched-trace v1|v2 <name>')"
    in
    let name = String.sub header 19 (eol - 19) in
    let pos = ref (eol + 1) in
    while !pos < n do
      incr lineno;
      let start = !pos in
      let i = ref start and ntabs = ref 0 in
      while !i < n && Bytes.unsafe_get b !i <> '\n' do
        if Bytes.unsafe_get b !i = '\t' then begin
          if !ntabs < 7 then tabs.(!ntabs) <- !i;
          incr ntabs
        end;
        incr i
      done;
      pos := !i + 1;
      if !i > start && Bytes.unsafe_get b start <> '#' then record version start !i !ntabs
    done;
    Ok { name; tasks = List.rev !tasks }
  with
  | Bad e -> Error e
  | Invalid_argument message -> Error { line = !lineno; message }

let parse s = parse_bytes (Bytes.unsafe_of_string s) (String.length s)

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let save ~dir t =
  ensure_dir dir;
  let path = Filename.concat dir (t.name ^ ".trace") in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc t);
  path

(* Reads the whole file into [buf], which it replaces when it must
   grow, and parses it. *)
let parse_file buf path =
  let ic = open_in_bin path in
  let n =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec fill n =
          if n = Bytes.length !buf then buf := Bytes.extend !buf 0 (Bytes.length !buf);
          match input ic !buf n (Bytes.length !buf - n) with 0 -> n | k -> fill (n + k)
        in
        fill 0)
  in
  parse_bytes !buf n

let new_buffer () = ref (Bytes.create 65536)

let load_result path = parse_file (new_buffer ()) path

(* Every failure names the path: [open_in]'s [Sys_error] message starts
   with it, a read's (a directory, an I/O error) does not. *)
let load_with buf path =
  let located = path ^ ": " in
  match parse_file buf path with
  | Ok t -> t
  | Error e -> failwith ("Trace.load: " ^ located ^ parse_error_to_string e)
  | exception Sys_error message ->
      let message =
        if String.starts_with ~prefix:located message then message else located ^ message
      in
      failwith ("Trace.load: " ^ message)

let load path = load_with (new_buffer ()) path

let of_task_lists ~prefix lists =
  Array.mapi (fun i tasks -> make ~name:(Printf.sprintf "%s-p%03d" prefix i) tasks) lists

let save_set ~dir ~prefix traces =
  ignore prefix;
  Array.to_list (Array.map (fun t -> save ~dir t) traces)

(* One buffer serves every file. *)
let load_set ~dir ~prefix =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:(prefix ^ "-p") f && Filename.check_suffix f ".trace")
    |> List.sort String.compare
  in
  let buf = new_buffer () in
  Array.of_list (List.map (fun f -> load_with buf (Filename.concat dir f)) files)
