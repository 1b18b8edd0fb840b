type span = {
  id : int;
  parent : int;
  name : string;
  key : string;
  start : float;
  stop : float;
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  mutable closed : span list; (* most recently closed first *)
  mutable next_id : int;
  mutable open_ : int list; (* innermost first *)
}

let create () = { closed = []; next_id = 0; open_ = [] }

let record t ?(key = "") name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start = now () in
  let close () =
    let stop = now () in
    t.open_ <- List.tl t.open_;
    t.closed <- { id; parent; name; key; start; stop } :: t.closed
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let spans t = Array.of_list (List.rev t.closed)

let self_times spans =
  let index = Hashtbl.create (Array.length spans) in
  Array.iteri (fun i s -> Hashtbl.replace index s.id i) spans;
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s ->
      match Hashtbl.find_opt index s.parent with
      | Some i -> children.(i) <- (s.start, s.stop) :: children.(i)
      | None -> ())
    spans;
  Array.mapi
    (fun i s ->
      (* sweep the children by start, counting each instant once *)
      let covered, _ =
        List.fold_left
          (fun (covered, reach) (a, b) ->
            let a = Float.max a reach and b = Float.min b s.stop in
            if b > a then (covered +. (b -. a), b) else (covered, reach))
          (0.0, s.start)
          (List.sort compare children.(i))
      in
      s.stop -. s.start -. covered)
    spans

type total = { count : int; total : float; self : float }

let totals spans =
  let self = self_times spans in
  let acc = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let t =
        Option.value (Hashtbl.find_opt acc s.name)
          ~default:{ count = 0; total = 0.0; self = 0.0 }
      in
      Hashtbl.replace acc s.name
        {
          count = t.count + 1;
          total = t.total +. (s.stop -. s.start);
          self = t.self +. self.(i);
        })
    spans;
  Hashtbl.fold (fun name t l -> (name, t) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_chrome path ~stamp spans =
  let origin = Array.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"otherData\": {";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "%s%s: %s" (if i = 0 then "" else ", ") (json_string k)
            (json_string v))
        stamp;
      output_string oc "},\n\"traceEvents\": [\n";
      Array.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
             \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"key\": %s}}"
            (if i = 0 then "" else ",\n")
            (json_string s.name)
            ((s.start -. origin) *. 1e6)
            ((s.stop -. s.start) *. 1e6)
            s.id s.parent (json_string s.key))
        spans;
      output_string oc "\n]}\n")
