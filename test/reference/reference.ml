(* Frozen quadratic implementations of the decision loops, kept verbatim
   as the behavioural reference: the O(n log n) loop must produce
   bit-identical schedules, which Test_equiv pins with QCheck properties
   against these copies, and the core-scaling bench times them as its
   "before" numbers; the same holds for the eviction fold ([Res]), the
   per-batch state rebuild ([Batch]), the string frame codecs
   ([Frame]) and the trace line reader ([Trace_reader]). Do not
   "fix" or modernise this file — its value is that it does not
   change. *)

open Dt_core

(* Old Dynamic_rules: full re-filter and re-scan of the remaining list at
   every decision step. *)
module Dyn = struct
  let score = function
    | Dynamic_rules.LCMR -> fun (t : Task.t) -> t.Task.comm
    | Dynamic_rules.SCMR -> fun (t : Task.t) -> -.t.Task.comm
    | Dynamic_rules.MAMR -> Task.acceleration

  let better key a b =
    let c = Float.compare (key a) (key b) in
    if c > 0 then true else if c < 0 then false else Task.compare_id a b < 0

  let select ?(min_idle_filter = true) criterion ~cpu_free ~now candidates =
    let idle (t : Task.t) = Float.max 0.0 (now +. t.Task.comm -. cpu_free) in
    match candidates with
    | [] -> None
    | first :: _ ->
        let eligible =
          if not min_idle_filter then candidates
          else begin
            let min_idle =
              List.fold_left (fun acc t -> Float.min acc (idle t)) (idle first) candidates
            in
            List.filter (fun t -> idle t <= min_idle +. 1e-12) candidates
          end
        in
        let key = score criterion in
        let best = function
          | [] -> None
          | t :: rest ->
              Some (List.fold_left (fun a b -> if better key b a then b else a) t rest)
        in
        best eligible

  let run ?state ?min_idle_filter criterion instance =
    let capacity = instance.Instance.capacity in
    let st = match state with Some s -> s | None -> Sim.initial_state () in
    let remaining = ref (Instance.task_list instance) in
    let entries = ref [] in
    let rec step () =
      match !remaining with
      | [] -> ()
      | _ ->
          let candidates =
            List.filter (fun (t : Task.t) -> Sim.fits_now st ~capacity t.Task.mem) !remaining
          in
          (match
             select ?min_idle_filter criterion ~cpu_free:(Sim.cpu_free_time st)
               ~now:(Sim.link_free_time st) candidates
           with
          | Some t ->
              entries := Sim.schedule_task st ~capacity t :: !entries;
              remaining := List.filter (fun (u : Task.t) -> u.Task.id <> t.Task.id) !remaining
          | None ->
              let advanced = Sim.advance_to_next_release st in
              assert advanced);
          step ()
    in
    step ();
    Schedule.make ~capacity (List.rev !entries)
end

(* Old Corrected_rules: pending kept as a list, head by pattern match,
   corrections re-filter the whole list. *)
module Cor = struct
  let run ?state ?order rule instance =
    let capacity = instance.Instance.capacity in
    let st = match state with Some s -> s | None -> Sim.initial_state () in
    let initial =
      match order with Some o -> o | None -> Johnson.order (Instance.task_list instance)
    in
    let pending = ref initial in
    let entries = ref [] in
    let take (t : Task.t) =
      entries := Sim.schedule_task st ~capacity t :: !entries;
      pending := List.filter (fun (u : Task.t) -> u.Task.id <> t.Task.id) !pending
    in
    let rec step () =
      match !pending with
      | [] -> ()
      | next :: _ ->
          if Sim.fits_now st ~capacity next.Task.mem then take next
          else begin
            let candidates =
              List.filter (fun (t : Task.t) -> Sim.fits_now st ~capacity t.Task.mem) !pending
            in
            match
              Dyn.select (Corrected_rules.criterion rule)
                ~cpu_free:(Sim.cpu_free_time st) ~now:(Sim.link_free_time st) candidates
            with
            | Some t -> take t
            | None ->
                let advanced = Sim.advance_to_next_release st in
                assert advanced
          end;
          step ()
    in
    step ();
    Schedule.make ~capacity (List.rev !entries)
end

(* Old online engine: future as a sorted assoc list (insertion sort on
   submit), arrived as a list (append on promote, filter on take), and a
   full Johnson re-sort of the arrived suffix at every decision point. *)
module Eng = struct
  type t = {
    capacity : float;
    policy : Dt_runtime.Engine.policy;
    st : Sim.state;
    mutable future : (float * Task.t) list;
    mutable arrived : Task.t list;
    mutable entries : Schedule.entry list;
  }

  let create ~policy ~capacity () =
    { capacity; policy; st = Sim.initial_state (); future = []; arrived = []; entries = [] }

  let submit t ~arrival (task : Task.t) =
    let rec insert = function
      | [] -> [ (arrival, task) ]
      | ((a, u) :: rest) as l ->
          if a > arrival || (a = arrival && Task.compare_id u task > 0) then
            (arrival, task) :: l
          else (a, u) :: insert rest
    in
    t.future <- insert t.future

  let promote t =
    let time = Sim.link_free_time t.st in
    let rec split acc = function
      | (a, task) :: rest when a <= time -> split (task :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let ready, future = split [] t.future in
    if ready <> [] then begin
      t.future <- future;
      t.arrived <- t.arrived @ ready
    end

  let take_task t (task : Task.t) =
    let entry = Sim.schedule_task t.st ~capacity:t.capacity task in
    t.arrived <- List.filter (fun (u : Task.t) -> u.Task.id <> task.Task.id) t.arrived;
    t.entries <- entry :: t.entries

  let rec step t =
    promote t;
    match (t.arrived, t.future) with
    | [], [] -> false
    | [], (a, _) :: _ ->
        Sim.advance_link_to t.st a;
        step t
    | arrived, future -> (
        let fits (task : Task.t) =
          Sim.fits_now t.st ~capacity:t.capacity task.Task.mem
        in
        let select criterion candidates =
          Dyn.select criterion ~cpu_free:(Sim.cpu_free_time t.st)
            ~now:(Sim.link_free_time t.st) candidates
        in
        let choice =
          match t.policy with
          | Dt_runtime.Engine.Dynamic criterion -> select criterion (List.filter fits arrived)
          | Dt_runtime.Engine.Corrected rule -> (
              match Johnson.order arrived with
              | next :: _ when fits next -> Some next
              | _ ->
                  select (Corrected_rules.criterion rule) (List.filter fits arrived))
        in
        match choice with
        | Some task ->
            take_task t task;
            true
        | None -> (
            let next_arrival = match future with [] -> None | (a, _) :: _ -> Some a in
            match (Sim.next_release_time t.st, next_arrival) with
            | None, None -> assert false
            | Some r, Some a when a < r ->
                Sim.advance_link_to t.st a;
                step t
            | Some _, _ ->
                let advanced = Sim.advance_to_next_release t.st in
                assert advanced;
                step t
            | None, Some a ->
                Sim.advance_link_to t.st a;
                step t))

  let drain t =
    while step t do
      ()
    done;
    Schedule.make ~capacity:t.capacity (List.rev t.entries)
end

(* Old Cached_rules: the evict-aware loop as a full list pass per
   decision — fits and effective communication re-evaluated for every
   remaining task, then a List.filter to drop the scheduled one. *)
module Cached = struct
  (* Sim.effective_comm and Sim.cached_fits_now, moved here from the
     simulator with their last caller: the same expressions, through the
     simulator's accessors. A task is named by its index in the run, and
     its tiles' residency is read through its refs: ref [j]'s slot and
     shares, in tile order. *)

  (* Fold over task [u]'s resident input tiles, in tile order: [f acc j
     pins] for each ref [j] whose tile is resident with [pins] pins. *)
  let fold_resident cs u f init =
    let res = Sim.cached_residency cs in
    let refs = Residency.refs res in
    let acc = ref init in
    for j = refs.Residency.first.(u) to refs.Residency.first.(u + 1) - 1 do
      let pins = Residency.pins res refs.Residency.slot.(j) in
      if pins >= 0 then acc := f !acc j pins
    done;
    !acc

  (* Transfer time the task would actually pay right now: the full comm
     minus the shares of its currently-resident tiles. *)
  let effective_comm cs (u, (task : Task.t)) =
    match task.Task.tiles with
    | [] -> task.Task.comm
    | _ ->
        let refs = Residency.refs (Sim.cached_residency cs) in
        let saved = fold_resident cs u (fun a j _ -> a +. refs.Residency.comm.(j)) 0.0 in
        Float.max 0.0 (task.Task.comm -. saved)

  (* Could the task start right now, allowing on-demand eviction of every
     unpinned tile it does not read itself?  The minimum achievable usage
     is: the unevictable memory + the task's own resident unpinned tiles
     (kept, they are about to be pinned) + the memory it still has to
     bring in. *)
  let cached_fits_now cs ~kcap (u, (task : Task.t)) =
    Sim.settle_cached cs;
    let refs = Residency.refs (Sim.cached_residency cs) in
    let resident_t, resident_unpinned_t =
      fold_resident cs u
        (fun (res_m, unp_m) j pins ->
          let m = refs.Residency.mem.(j) in
          (res_m +. m, if pins = 0 then unp_m +. m else unp_m))
        (0.0, 0.0)
    in
    Sim.cached_unevictable cs +. resident_unpinned_t +. (task.Task.mem -. resident_t) <= kcap

  let select criterion ~cstate ~kcap ~cpu_free ~now candidates =
    let fitting =
      List.filter (fun t -> cached_fits_now cstate ~kcap t) candidates
    in
    let eff = effective_comm cstate in
    let idle t = Float.max 0.0 (now +. eff t -. cpu_free) in
    match fitting with
    | [] -> None
    | first :: _ ->
        let eligible =
          let min_idle =
            List.fold_left (fun acc t -> Float.min acc (idle t)) (idle first) fitting
          in
          List.filter (fun t -> idle t <= min_idle +. 1e-12) fitting
        in
        let key =
          match criterion with
          | Dynamic_rules.LCMR -> eff
          | Dynamic_rules.SCMR -> fun t -> -.eff t
          | Dynamic_rules.MAMR ->
              fun ((_, task) as t) ->
                let c = eff t in
                if c = 0.0 then Float.infinity else task.Task.comp /. c
        in
        let better ((_, ta) as a) ((_, tb) as b) =
          let c = Float.compare (key a) (key b) in
          if c > 0 then true else if c < 0 then false else Task.compare_id ta tb < 0
        in
        let best = function
          | [] -> None
          | t :: rest ->
              Some (List.fold_left (fun a b -> if better b a then b else a) t rest)
        in
        best eligible

  let run ?policy criterion instance =
    let capacity = instance.Instance.capacity in
    let cs = Sim.cached_state ?policy instance.Instance.tasks in
    let tasks = List.mapi (fun u t -> (u, t)) (Instance.task_list instance) in
    List.iter
      (fun (_, t) ->
        if t.Task.mem > capacity *. (1.0 +. 1e-12) then
          invalid_arg
            (Printf.sprintf "Cached_rules.run: task %d needs %g > capacity %g" t.Task.id
               t.Task.mem capacity))
      tasks;
    let kcap = capacity *. (1.0 +. 1e-12) in
    let remaining = ref tasks in
    let entries = ref [] in
    while !remaining <> [] do
      Sim.settle_cached cs;
      match
        select criterion ~cstate:cs ~kcap ~cpu_free:(Sim.cached_cpu_free cs)
          ~now:(Sim.cached_link_free cs) !remaining
      with
      | Some (u, _) ->
          entries := Sim.schedule_task_cached cs ~capacity u :: !entries;
          remaining := List.filter (fun (v, _) -> v <> u) !remaining
      | None ->
          (* Nothing fits: wait for the next completion. All tasks fit
             the capacity alone, so an event must exist. *)
          let advanced = Sim.cached_advance_to_next_event cs in
          assert advanced
    done;
    (Schedule.make ~capacity (List.rev !entries), Residency.stats (Sim.cached_residency cs))
end

(* Old Residency: the tile table under the polymorphic Hashtbl, and
   [evict_candidate] as a fold over every resident tile per eviction.
   The stamp heap that replaced the fold must name the same victim after
   any sequence of operations; Test_residency pins it with QCheck. *)
module Res = struct
  type policy = Residency.policy = Lru | Min_refetch

  type entry = {
    e_comm : float; (* refetch cost if evicted and needed again *)
    e_mem : float;
    mutable pins : int;
    mutable last_use : int;
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
      hit_comm = 0.0;
      miss_comm = 0.0;
    }

  let resident_bytes t = t.resident_bytes
  let pinned_bytes t = t.pinned_bytes
  let resident_tiles t = Hashtbl.length t.table
  let is_resident t tile = Hashtbl.mem t.table tile

  let pin_count t tile =
    match Hashtbl.find_opt t.table tile with Some e -> e.pins | None -> 0

  let stats t =
    {
      Residency.hits = t.hits;
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
end

(* Old Bin_packing.bins: First-Fit over a list of open bins, a new bin
   appended with [@], which copies the list. *)
module Bp = struct
  type bin = { mutable free : float; mutable members : Task.t list }

  let bins ~capacity tasks =
    let open_bins = ref [] in
    let place t =
      if t.Task.mem > capacity *. (1.0 +. 1e-12) then
        invalid_arg
          (Printf.sprintf "Bin_packing: task %d needs %g > capacity %g" t.Task.id t.Task.mem
             capacity);
      let rec fit = function
        | [] ->
            open_bins := !open_bins @ [ { free = capacity -. t.Task.mem; members = [ t ] } ]
        | b :: rest ->
            if t.Task.mem <= b.free +. (1e-12 *. Float.max 1.0 capacity) then begin
              b.free <- b.free -. t.Task.mem;
              b.members <- t :: b.members
            end
            else fit rest
      in
      fit !open_bins
    in
    List.iter place tasks;
    List.map (fun b -> List.rev b.members) !open_bins
end

(* Old Schedule.make: the entries copied by [Array.of_list] and
   heap-sorted, whatever their order. [Schedule.t] is private, so this
   returns the sorted array. *)
module Sched = struct
  open Schedule

  let make entries =
    let entries = Array.of_list entries in
    let cmp a b =
      let c = Float.compare a.s_comm b.s_comm in
      if c <> 0 then c
      else
        let c = Float.compare a.s_comp b.s_comp in
        if c <> 0 then c else Int.compare a.task.Task.id b.task.Task.id
    in
    Array.sort cmp entries;
    entries
end

(* Old Batched.run: the executor state rebuilt at every batch from all
   the entries so far (two folds and a filter_map over them), and each
   batch's entries appended with [@]: O(n²/batch). *)
module Batch = struct
  let run ?lp_node_limit ~batch heuristic instance =
    let capacity = instance.Instance.capacity in
    let entries = ref [] in
    let state_of_entries es =
      let link_free = List.fold_left (fun acc e -> Float.max acc (Schedule.comm_end e)) 0.0 es
      and cpu_free = List.fold_left (fun acc e -> Float.max acc (Schedule.comp_end e)) 0.0 es in
      let held =
        List.filter_map
          (fun e ->
            let ce = Schedule.comp_end e in
            if ce > link_free then Some (ce, e.Schedule.task.Task.mem) else None)
          es
      in
      Sim.restore_state ~link_free ~cpu_free ~held
    in
    List.iter
      (fun tasks ->
        let sub = Instance.make_keep_ids ~capacity tasks in
        let state = state_of_entries !entries in
        let sched = Heuristic.run ~state ?lp_node_limit heuristic sub in
        entries := !entries @ Schedule.entries sched)
      (Batched.slices ~batch (Instance.task_list instance));
    Schedule.make ~capacity !entries
end

(* The string frame codecs that [Protocol.frame_of_buf] and
   [Protocol.encode_response_frame_into] replaced on the server path,
   kept as the references those are pinned against. *)
module Frame = struct
  open Dt_runtime

  (* Pull one frame's payload out of a reassembly buffer at [pos]. *)
  let extract_frame buf ~pos : string Protocol.frame =
    let n = String.length buf in
    if n - pos < 4 then Protocol.Need_more
    else
      let len = Int32.to_int (String.get_int32_be buf pos) in
      if len < 0 || len > Protocol.max_frame_bytes then
        Protocol.Frame_error
          (Printf.sprintf "frame length %d out of bounds (max %d)" len
             Protocol.max_frame_bytes)
      else if n - pos - 4 < len then Protocol.Need_more
      else Protocol.Frame (String.sub buf (pos + 4) len, 4 + len)

  let frame payload =
    let b = Buffer.create (String.length payload + 4) in
    Buffer.add_int32_be b (Int32.of_int (String.length payload));
    Buffer.add_string b payload;
    Buffer.contents b

  (* One frame holding one request's response lines, header included. *)
  let encode_response_frame lines =
    let b = Buffer.create 64 in
    List.iter
      (fun line ->
        Buffer.add_int32_be b (Int32.of_int (String.length line));
        Buffer.add_string b line)
      lines;
    frame (Buffer.contents b)
end

(* The line reader that [Trace.parse] replaced: [input_line],
   [split_on_char] and [float_of_string_opt] per field, a table for
   duplicate ids. [Trace.parse] is pinned against it, message for
   message and bit for bit. *)
module Trace_reader = struct
  type t = Dt_trace.Trace.t = { name : string; tasks : Dt_core.Task.t list }
  type parse_error = Dt_trace.Trace.parse_error = { line : int; message : string }

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
end
