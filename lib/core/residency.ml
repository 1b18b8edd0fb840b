type policy =
  | Lru
  | Min_refetch

let all_policies = [ Lru; Min_refetch ]

let policy_name = function Lru -> "lru" | Min_refetch -> "min-refetch"

(* Tile ids may be sparse (an array's base plus a tile index) and
   [Hashtbl.Make] picks a bucket from the hash's low bits, so the hash
   mixes every bit of the id into them (two xor-shift-multiply rounds):
   ids that differ only in high bits spread like dense ones. *)
module Tiles = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let x = (x lxor (x lsr 31)) * 0x3C79AC492BA7B653 in
    let x = (x lxor (x lsr 29)) * 0x1C69B3F74AC4AE35 in
    x lxor (x lsr 32)
end)

(* An eviction candidate as it stood when it was pushed: valid while its
   slot's tile is resident, unpinned and unused since. *)
type stamp = { s_tile : int; s_slot : int; s_use : int; s_comm : float }

let by_recency a b =
  let c = Int.compare a.s_use b.s_use in
  if c <> 0 then c else Int.compare a.s_tile b.s_tile

let by_refetch a b =
  let c = Float.compare a.s_comm b.s_comm in
  if c <> 0 then c else by_recency a b

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  hit_comm : float;  (* transfer time saved by hits *)
  miss_comm : float; (* transfer time paid on misses *)
}

type refs = {
  first : int array; (* task u's refs are [first.(u), first.(u + 1)) *)
  slot : int array; (* by ref *)
  comm : float array; (* by ref *)
  mem : float array; (* by ref *)
  tile : int array; (* by slot *)
}

(* A tile's state lives in flat arrays by slot. *)
type t = {
  refs : refs;
  pins : int array; (* -1 when the tile is not resident *)
  last_use : int array; (* a clock value no other resident tile holds *)
  refetch : float array; (* the admitting ref's transfer share *)
  size : float array; (* the admitting ref's memory share *)
  victims : stamp Iheap.t; (* every unpinned resident tile's stamp, and stale ones *)
  mutable resident_bytes : float;
  mutable pinned_bytes : float;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable hit_comm : float;
  mutable miss_comm : float;
}

(* One pass over the tasks' tile lists: a tile id gets the next slot the
   first time it is named. The table holds at most one entry per ref. *)
let intern (tasks : Task.t array) =
  let n = Array.length tasks in
  let first = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    first.(u + 1) <- first.(u) + List.length tasks.(u).Task.tiles
  done;
  let refs = first.(n) in
  let ids = Tiles.create refs in
  let slot = Array.make refs 0 and tile = Array.make refs 0 in
  let comm = Array.make refs 0.0 and mem = Array.make refs 0.0 in
  let rec fill j = function
    | [] -> ()
    | (r : Task.tile_ref) :: rest ->
        let s =
          match Tiles.find ids r.Task.tile with
          | s -> s
          | exception Not_found ->
              let s = Tiles.length ids in
              Tiles.add ids r.Task.tile s;
              tile.(s) <- r.Task.tile;
              s
        in
        slot.(j) <- s;
        comm.(j) <- r.Task.t_comm;
        mem.(j) <- r.Task.t_mem;
        fill (j + 1) rest
  in
  for u = 0 to n - 1 do
    fill first.(u) tasks.(u).Task.tiles
  done;
  { first; slot; comm; mem; tile = Array.sub tile 0 (Tiles.length ids) }

let create ?(policy = Lru) tasks =
  let refs = intern tasks in
  let tiles = Array.length refs.tile in
  {
    refs;
    pins = Array.make tiles (-1);
    last_use = Array.make tiles 0;
    refetch = Array.make tiles 0.0;
    size = Array.make tiles 0.0;
    victims = Iheap.create ~cmp:(match policy with Lru -> by_recency | Min_refetch -> by_refetch);
    resident_bytes = 0.0;
    pinned_bytes = 0.0;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    hit_comm = 0.0;
    miss_comm = 0.0;
  }

let refs t = t.refs
let resident_bytes t = t.resident_bytes
let pinned_bytes t = t.pinned_bytes

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    hit_comm = t.hit_comm;
    miss_comm = t.miss_comm;
  }

let pins t s = t.pins.(s)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Pin a tile the task reads. A resident tile is a hit (no transfer, no
   new memory); an absent one is a miss — it is admitted resident and
   charged to the cache. Either way the tile is pinned until {!unpin}.
   A tile is one block of memory: every reference to a resident tile
   must carve out the same memory share, or the executor's memory
   accounting (which charges the resident size once and each task's own
   share privately) no longer adds up. Transfer shares may differ. *)
let touch t j =
  let s = t.refs.slot.(j) and comm = t.refs.comm.(j) and mem = t.refs.mem.(j) in
  let pins = t.pins.(s) in
  if pins >= 0 && t.size.(s) <> mem then
    invalid_arg
      (Printf.sprintf "Residency.touch: tile %d is resident with %g bytes, referenced with %g"
         t.refs.tile.(s) t.size.(s) mem);
  t.last_use.(s) <- tick t;
  if pins >= 0 then begin
    if pins = 0 then t.pinned_bytes <- t.pinned_bytes +. t.size.(s);
    t.pins.(s) <- pins + 1;
    t.hits <- t.hits + 1;
    t.hit_comm <- t.hit_comm +. comm;
    `Hit
  end
  else begin
    t.pins.(s) <- 1;
    t.refetch.(s) <- comm;
    t.size.(s) <- mem;
    t.resident_bytes <- t.resident_bytes +. mem;
    t.pinned_bytes <- t.pinned_bytes +. mem;
    t.misses <- t.misses + 1;
    t.miss_comm <- t.miss_comm +. comm;
    `Miss
  end

let unpin t s =
  let pins = t.pins.(s) in
  if pins < 0 then
    invalid_arg (Printf.sprintf "Residency.unpin: tile %d not resident" t.refs.tile.(s));
  if pins = 0 then invalid_arg (Printf.sprintf "Residency.unpin: tile %d not pinned" t.refs.tile.(s));
  t.pins.(s) <- pins - 1;
  if pins = 1 then begin
    t.pinned_bytes <- t.pinned_bytes -. t.size.(s);
    (* the slot's earlier stamps, if any, are stale from now on *)
    Iheap.add t.victims
      { s_tile = t.refs.tile.(s); s_slot = s; s_use = t.last_use.(s); s_comm = t.refetch.(s) }
  end

(* The least stamp that is still valid. Each unpinned resident tile has
   exactly one valid stamp (the one under its [last_use], which no other
   tile holds), so this is the least unpinned tile by (last_use, id), or
   by (comm, last_use, id); stale stamps that surface are dropped. *)
let rec victim t =
  match Iheap.peek t.victims with
  | None -> -1
  | Some st ->
      if t.pins.(st.s_slot) = 0 && t.last_use.(st.s_slot) = st.s_use then st.s_slot
      else begin
        ignore (Iheap.pop t.victims);
        victim t
      end

let evict t s =
  let pins = t.pins.(s) in
  if pins < 0 then
    invalid_arg (Printf.sprintf "Residency.evict: tile %d not resident" t.refs.tile.(s));
  if pins > 0 then invalid_arg (Printf.sprintf "Residency.evict: tile %d is pinned" t.refs.tile.(s));
  t.pins.(s) <- -1;
  t.resident_bytes <- t.resident_bytes -. t.size.(s);
  t.evictions <- t.evictions + 1
