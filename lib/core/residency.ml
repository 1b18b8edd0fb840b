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

type entry = {
  e_comm : float; (* refetch cost if evicted and needed again *)
  e_mem : float;
  mutable pins : int;
  mutable last_use : int; (* a clock value no other resident tile holds *)
}

(* An eviction candidate as it stood when it was pushed: valid while its
   tile is resident, unpinned and unused since. *)
type stamp = { s_tile : int; s_use : int; s_comm : float }

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

type t = {
  table : entry Tiles.t;
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

let create ?(policy = Lru) () =
  {
    table = Tiles.create 64;
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

let resident_bytes t = t.resident_bytes
let pinned_bytes t = t.pinned_bytes
let resident_tiles t = Tiles.length t.table
let is_resident t tile = Tiles.mem t.table tile

let pins t tile = match Tiles.find t.table tile with e -> e.pins | exception Not_found -> -1
let pin_count t tile = Int.max 0 (pins t tile)

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    hit_comm = t.hit_comm;
    miss_comm = t.miss_comm;
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* A tile is one block of memory: every reference to a resident tile
   must carve out the same memory share, or the executor's memory
   accounting (which charges the resident size once and each task's own
   share privately) no longer adds up. Transfer shares may differ. *)
let check_size (e : entry) (r : Task.tile_ref) =
  if e.e_mem <> r.Task.t_mem then
    invalid_arg
      (Printf.sprintf "Residency.touch: tile %d is resident with %g bytes, referenced with %g"
         r.Task.tile e.e_mem r.Task.t_mem)

(* Pin a tile the task reads. A resident tile is a hit (no transfer, no
   new memory); an absent one is a miss — it is admitted resident and
   charged to the cache. Either way the tile is pinned until {!unpin}. *)
let touch t (r : Task.tile_ref) =
  let found = Tiles.find_opt t.table r.Task.tile in
  Option.iter (fun e -> check_size e r) found;
  let now = tick t in
  match found with
  | Some e ->
      e.last_use <- now;
      if e.pins = 0 then t.pinned_bytes <- t.pinned_bytes +. e.e_mem;
      e.pins <- e.pins + 1;
      t.hits <- t.hits + 1;
      t.hit_comm <- t.hit_comm +. r.Task.t_comm;
      `Hit
  | None ->
      Tiles.replace t.table r.Task.tile
        { e_comm = r.Task.t_comm; e_mem = r.Task.t_mem; pins = 1; last_use = now };
      t.resident_bytes <- t.resident_bytes +. r.Task.t_mem;
      t.pinned_bytes <- t.pinned_bytes +. r.Task.t_mem;
      t.misses <- t.misses + 1;
      t.miss_comm <- t.miss_comm +. r.Task.t_comm;
      `Miss

let unpin t tile =
  match Tiles.find_opt t.table tile with
  | None -> invalid_arg (Printf.sprintf "Residency.unpin: tile %d not resident" tile)
  | Some e ->
      if e.pins <= 0 then
        invalid_arg (Printf.sprintf "Residency.unpin: tile %d not pinned" tile);
      e.pins <- e.pins - 1;
      if e.pins = 0 then begin
        t.pinned_bytes <- t.pinned_bytes -. e.e_mem;
        (* the tile's earlier stamps, if any, are stale from now on *)
        Iheap.add t.victims { s_tile = tile; s_use = e.last_use; s_comm = e.e_comm }
      end

(* The unpinned victim the policy would evict next: the least stamp
   that is still valid. Each unpinned resident tile has exactly one valid
   stamp (the one under its [last_use], which no other tile holds), so
   this is the least unpinned tile by (last_use, id), or by (comm,
   last_use, id); stale stamps that surface are dropped. *)
let rec evict_candidate t =
  match Iheap.peek t.victims with
  | None -> None
  | Some s -> (
      match Tiles.find t.table s.s_tile with
      | e when e.pins = 0 && e.last_use = s.s_use -> Some s.s_tile
      | _ | (exception Not_found) ->
          ignore (Iheap.pop t.victims);
          evict_candidate t)

let evict t tile =
  match Tiles.find_opt t.table tile with
  | None -> invalid_arg (Printf.sprintf "Residency.evict: tile %d not resident" tile)
  | Some e ->
      if e.pins > 0 then
        invalid_arg (Printf.sprintf "Residency.evict: tile %d is pinned" tile);
      Tiles.remove t.table tile;
      t.resident_bytes <- t.resident_bytes -. e.e_mem;
      t.evictions <- t.evictions + 1
