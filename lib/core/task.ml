type tile_ref = {
  tile : int;
  t_comm : float;
  t_mem : float;
}

type t = {
  id : int;
  label : string;
  comm : float;
  comp : float;
  mem : float;
  tiles : tile_ref list;
}

let finite v = Float.is_finite v

let check_ref r =
  if r.tile < 0 then invalid_arg "Task.make: negative input tile id";
  if r.t_comm < 0.0 || r.t_mem < 0.0 then invalid_arg "Task.make: negative input tile field";
  if Float.is_nan r.t_comm || Float.is_nan r.t_mem then
    invalid_arg "Task.make: NaN input tile field";
  if not (finite r.t_comm && finite r.t_mem) then
    invalid_arg "Task.make: non-finite input tile field"

let duplicate tile = invalid_arg (Printf.sprintf "Task.make: duplicate input tile id %d" tile)

(* Whether one of the first [k] refs of [refs] names [tile]. *)
let rec among tile refs k =
  k > 0 && match refs with r :: rest -> r.tile = tile || among tile rest (k - 1) | [] -> false

(* Each ref in list order: its fields, then whether an earlier ref names
   its tile, so the error is the first one met in the list. A short list
   checks the earlier refs pairwise; only a long one pays for a table. *)
let check_refs refs =
  match refs with
  | [] -> ()
  | _ when List.compare_length_with refs 8 <= 0 ->
      List.iteri
        (fun i r ->
          check_ref r;
          if among r.tile refs i then duplicate r.tile)
        refs
  | _ ->
      let seen = Hashtbl.create 16 in
      List.iter
        (fun r ->
          check_ref r;
          if Hashtbl.mem seen r.tile then duplicate r.tile;
          Hashtbl.replace seen r.tile ())
        refs

let sum_comm refs = List.fold_left (fun acc r -> acc +. r.t_comm) 0.0 refs
let sum_mem refs = List.fold_left (fun acc r -> acc +. r.t_mem) 0.0 refs

(* Shares may not exceed the task totals they are carved out of; the
   1e-9-relative slack absorbs the rounding of proportional splits. *)
let share_slack total = 1e-9 *. Float.max 1.0 total

let make ?label ?mem ?(tiles = []) ~id ~comm ~comp () =
  let mem = match mem with Some m -> m | None -> comm in
  let label = match label with Some l -> l | None -> Printf.sprintf "t%d" id in
  if comm < 0.0 || comp < 0.0 || mem < 0.0 then
    invalid_arg "Task.make: negative duration or memory";
  if Float.is_nan comm || Float.is_nan comp || Float.is_nan mem then
    invalid_arg "Task.make: NaN field";
  if not (finite comm && finite comp && finite mem) then
    invalid_arg "Task.make: non-finite field";
  check_refs tiles;
  if sum_comm tiles > comm +. share_slack comm then
    invalid_arg "Task.make: tile communication shares exceed comm";
  if sum_mem tiles > mem +. share_slack mem then
    invalid_arg "Task.make: tile memory shares exceed mem";
  { id; label; comm; comp; mem; tiles }

let filler = make ~id:(-1) ~comm:0.0 ~comp:0.0 ()

let with_id t id = { t with id }

let flatten t = if t.tiles = [] then t else { t with tiles = [] }

let has_tiles t = t.tiles <> []

let charged t ~comm =
  if comm < 0.0 || not (finite comm) then invalid_arg "Task.charged: bad effective comm";
  { t with comm; tiles = [] }

let is_compute_intensive t = t.comp >= t.comm

let acceleration t = if t.comm = 0.0 then Float.infinity else t.comp /. t.comm

let tile_ref_equal a b = a.tile = b.tile && a.t_comm = b.t_comm && a.t_mem = b.t_mem

let equal a b =
  a.id = b.id && a.comm = b.comm && a.comp = b.comp && a.mem = b.mem
  && String.equal a.label b.label
  && List.equal tile_ref_equal a.tiles b.tiles

let compare_id a b = Int.compare a.id b.id

let pp ppf t =
  Format.fprintf ppf "@[<h>%s(id=%d cm=%g cp=%g mc=%g" t.label t.id t.comm t.comp t.mem;
  if t.tiles <> [] then
    Format.fprintf ppf " tiles=[%s]"
      (String.concat ";"
         (List.map (fun r -> Printf.sprintf "%d:%g:%g" r.tile r.t_comm r.t_mem) t.tiles));
  Format.fprintf ppf ")@]"
