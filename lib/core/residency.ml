type policy =
  | Lru
  | Min_refetch

let all_policies = [ Lru; Min_refetch ]

let policy_name = function Lru -> "lru" | Min_refetch -> "min-refetch"

let policy_of_name s =
  match String.lowercase_ascii s with
  | "lru" -> Some Lru
  | "min-refetch" | "minrefetch" | "min_refetch" -> Some Min_refetch
  | _ -> None

type entry = {
  e_comm : float; (* refetch cost if evicted and needed again *)
  e_mem : float;
  mutable pins : int;
  mutable last_use : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  hit_comm : float;  (* transfer time saved by hits *)
  miss_comm : float; (* transfer time paid on misses *)
}

type t = {
  policy : policy;
  table : (int, entry) Hashtbl.t;
  mutable resident_bytes : float;
  mutable pinned_bytes : float;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable hit_comm : float;
  mutable miss_comm : float;
}

let create ?(policy = Lru) () =
  {
    policy;
    table = Hashtbl.create 64;
    resident_bytes = 0.0;
    pinned_bytes = 0.0;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    hit_comm = 0.0;
    miss_comm = 0.0;
  }

let policy t = t.policy
let resident_bytes t = t.resident_bytes
let pinned_bytes t = t.pinned_bytes
let resident_tiles t = Hashtbl.length t.table
let is_resident t tile = Hashtbl.mem t.table tile

let pin_count t tile =
  match Hashtbl.find_opt t.table tile with Some e -> e.pins | None -> 0

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    writebacks = t.writebacks;
    hit_comm = t.hit_comm;
    miss_comm = t.miss_comm;
  }

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* A tile is one block of memory: every reference to a resident tile
   must carve out the same memory share, or the executor's memory
   accounting (which charges the resident size once and each task's own
   share privately) no longer adds up. Transfer shares may differ. *)
let check_size who (e : entry) (r : Task.tile_ref) =
  if e.e_mem <> r.Task.t_mem then
    invalid_arg
      (Printf.sprintf "Residency.%s: tile %d is resident with %g bytes, referenced with %g"
         who r.Task.tile e.e_mem r.Task.t_mem)

(* Pin a tile the task reads. A resident tile is a hit (no transfer, no
   new memory); an absent one is a miss — it is admitted resident and
   charged to the cache. Either way the tile is pinned until {!unpin}. *)
let touch t (r : Task.tile_ref) =
  let found = Hashtbl.find_opt t.table r.Task.tile in
  Option.iter (fun e -> check_size "touch" e r) found;
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
      Hashtbl.replace t.table r.Task.tile
        { e_comm = r.Task.t_comm; e_mem = r.Task.t_mem; pins = 1; last_use = now };
      t.resident_bytes <- t.resident_bytes +. r.Task.t_mem;
      t.pinned_bytes <- t.pinned_bytes +. r.Task.t_mem;
      t.misses <- t.misses + 1;
      t.miss_comm <- t.miss_comm +. r.Task.t_comm;
      `Miss

let unpin t tile =
  match Hashtbl.find_opt t.table tile with
  | None -> invalid_arg (Printf.sprintf "Residency.unpin: tile %d not resident" tile)
  | Some e ->
      if e.pins <= 0 then
        invalid_arg (Printf.sprintf "Residency.unpin: tile %d not pinned" tile);
      e.pins <- e.pins - 1;
      if e.pins = 0 then t.pinned_bytes <- t.pinned_bytes -. e.e_mem

(* A write-back makes the output tile resident (write-allocate): its
   memory moves from the finished task's private share into the cache. *)
let admit_write t (r : Task.tile_ref) =
  let found = Hashtbl.find_opt t.table r.Task.tile in
  Option.iter (fun e -> check_size "admit_write" e r) found;
  let now = tick t in
  t.writebacks <- t.writebacks + 1;
  match found with
  | Some e -> e.last_use <- now
  | None ->
      Hashtbl.replace t.table r.Task.tile
        { e_comm = r.Task.t_comm; e_mem = r.Task.t_mem; pins = 0; last_use = now };
      t.resident_bytes <- t.resident_bytes +. r.Task.t_mem

let evictable_bytes t = t.resident_bytes -. t.pinned_bytes

(* The unpinned victim the policy would evict next: least recently used,
   or cheapest to refetch (ties by recency, then tile id — deterministic
   whatever the hash order). *)
let evict_candidate t =
  let better (id_a, a) (id_b, b) =
    match t.policy with
    | Lru ->
        a.last_use < b.last_use || (a.last_use = b.last_use && id_a < id_b)
    | Min_refetch ->
        let c = Float.compare a.e_comm b.e_comm in
        c < 0
        || (c = 0 && (a.last_use < b.last_use || (a.last_use = b.last_use && id_a < id_b)))
  in
  Hashtbl.fold
    (fun id e best ->
      if e.pins > 0 then best
      else
        match best with
        | None -> Some (id, e)
        | Some b -> if better (id, e) b then Some (id, e) else best)
    t.table None
  |> Option.map fst

let evict t tile =
  match Hashtbl.find_opt t.table tile with
  | None -> invalid_arg (Printf.sprintf "Residency.evict: tile %d not resident" tile)
  | Some e ->
      if e.pins > 0 then
        invalid_arg (Printf.sprintf "Residency.evict: tile %d is pinned" tile);
      Hashtbl.remove t.table tile;
      t.resident_bytes <- t.resident_bytes -. e.e_mem;
      t.evictions <- t.evictions + 1

(* Drop unpinned tiles until at most [down_to] evictable bytes remain or
   nothing is evictable; returns the bytes freed. *)
let rec evict_down_to t down_to =
  if evictable_bytes t <= down_to then 0.0
  else
    match evict_candidate t with
    | None -> 0.0
    | Some tile ->
        let freed =
          match Hashtbl.find_opt t.table tile with Some e -> e.e_mem | None -> 0.0
        in
        evict t tile;
        freed +. evict_down_to t down_to
