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

(* Every tile seen gets the next slot, for good; its state lives in flat
   arrays by slot, valid below the table's length. *)
type t = {
  slots : int Tiles.t; (* tile id -> slot *)
  mutable tile : int array; (* slot -> tile id *)
  mutable pins : int array; (* -1 when the tile is not resident *)
  mutable last_use : int array; (* a clock value no other resident tile holds *)
  mutable comm : float array; (* refetch cost if evicted and needed again *)
  mutable mem : float array;
  victims : stamp Iheap.t; (* every unpinned resident tile's stamp, and stale ones *)
  mutable resident : int;
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
    slots = Tiles.create 64;
    tile = Array.make 16 0;
    pins = Array.make 16 (-1);
    last_use = Array.make 16 0;
    comm = Array.make 16 0.0;
    mem = Array.make 16 0.0;
    victims = Iheap.create ~cmp:(match policy with Lru -> by_recency | Min_refetch -> by_refetch);
    resident = 0;
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
let resident_tiles t = t.resident

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    hit_comm = t.hit_comm;
    miss_comm = t.miss_comm;
  }

let slot t tile =
  match Tiles.find t.slots tile with
  | s -> s
  | exception Not_found ->
      let s = Tiles.length t.slots in
      if s = Array.length t.pins then begin
        let grow a x =
          let b = Array.make (2 * s) x in
          Array.blit a 0 b 0 s;
          b
        in
        t.tile <- grow t.tile 0;
        t.pins <- grow t.pins (-1);
        t.last_use <- grow t.last_use 0;
        t.comm <- grow t.comm 0.0;
        t.mem <- grow t.mem 0.0
      end;
      t.tile.(s) <- tile;
      Tiles.add t.slots tile s;
      s

let slot_pins t s = t.pins.(s)

(* The id-level queries intern nothing: a tile never seen is absent. *)
let pins t tile = match Tiles.find t.slots tile with s -> t.pins.(s) | exception Not_found -> -1
let is_resident t tile = pins t tile >= 0
let pin_count t tile = Int.max 0 (pins t tile)

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
let touch_slot t s (r : Task.tile_ref) =
  let pins = t.pins.(s) in
  if pins >= 0 && t.mem.(s) <> r.Task.t_mem then
    invalid_arg
      (Printf.sprintf "Residency.touch: tile %d is resident with %g bytes, referenced with %g"
         r.Task.tile t.mem.(s) r.Task.t_mem);
  t.last_use.(s) <- tick t;
  if pins >= 0 then begin
    if pins = 0 then t.pinned_bytes <- t.pinned_bytes +. t.mem.(s);
    t.pins.(s) <- pins + 1;
    t.hits <- t.hits + 1;
    t.hit_comm <- t.hit_comm +. r.Task.t_comm;
    `Hit
  end
  else begin
    t.pins.(s) <- 1;
    t.comm.(s) <- r.Task.t_comm;
    t.mem.(s) <- r.Task.t_mem;
    t.resident <- t.resident + 1;
    t.resident_bytes <- t.resident_bytes +. r.Task.t_mem;
    t.pinned_bytes <- t.pinned_bytes +. r.Task.t_mem;
    t.misses <- t.misses + 1;
    t.miss_comm <- t.miss_comm +. r.Task.t_comm;
    `Miss
  end

let touch t (r : Task.tile_ref) = touch_slot t (slot t r.Task.tile) r

let unpin_slot t s =
  let pins = t.pins.(s) in
  if pins < 0 then invalid_arg (Printf.sprintf "Residency.unpin: tile %d not resident" t.tile.(s));
  if pins = 0 then invalid_arg (Printf.sprintf "Residency.unpin: tile %d not pinned" t.tile.(s));
  t.pins.(s) <- pins - 1;
  if pins = 1 then begin
    t.pinned_bytes <- t.pinned_bytes -. t.mem.(s);
    (* the slot's earlier stamps, if any, are stale from now on *)
    Iheap.add t.victims
      { s_tile = t.tile.(s); s_slot = s; s_use = t.last_use.(s); s_comm = t.comm.(s) }
  end

let unpin t tile =
  match Tiles.find t.slots tile with
  | s -> unpin_slot t s
  | exception Not_found -> invalid_arg (Printf.sprintf "Residency.unpin: tile %d not resident" tile)

(* The slot of the unpinned victim the policy would evict next, or -1: the
   least stamp that is still valid. Each unpinned resident tile has
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

let evict_candidate t =
  let s = victim t in
  if s < 0 then None else Some t.tile.(s)

let evict_slot t s =
  let pins = t.pins.(s) in
  if pins < 0 then invalid_arg (Printf.sprintf "Residency.evict: tile %d not resident" t.tile.(s));
  if pins > 0 then invalid_arg (Printf.sprintf "Residency.evict: tile %d is pinned" t.tile.(s));
  t.pins.(s) <- -1;
  t.resident <- t.resident - 1;
  t.resident_bytes <- t.resident_bytes -. t.mem.(s);
  t.evictions <- t.evictions + 1

let evict t tile =
  match Tiles.find t.slots tile with
  | s -> evict_slot t s
  | exception Not_found -> invalid_arg (Printf.sprintf "Residency.evict: tile %d not resident" tile)

let evict_next t =
  let s = victim t in
  if s >= 0 then evict_slot t s;
  s >= 0
