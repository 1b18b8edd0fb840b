(* A persistent pool of OCaml 5 worker domains.

   Each worker owns one FIFO of tasks under its own small lock. [submit
   ~shard] appends to one worker's FIFO, which is what gives the runtime
   service its connection-to-shard affinity and lock-free sessions: the
   tasks of one shard run one at a time, in submission order.

   A [parallel_map] call appends one helper closure to each of
   min(workers, n - 1) FIFOs and runs the same helper on the calling
   domain. A helper claims the next index from the job's shared counter
   until none is left. The caller's helper alone can claim every index,
   so a job completes whatever the workers are doing (no deadlock, also
   for concurrent calls from several domains), and a helper that runs
   after its job ended, queued behind a long pinned task, finds no index
   left and returns at once.

   Results land in a preallocated slot per index, so collection is
   deterministic and in index order no matter which domain computed
   what: bit-identical to the sequential [Array.map]. *)

type stats = { jobs : int; fallbacks : int; steals : int }

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  tasks : (unit -> unit) Queue.t;
}

type t = {
  workers : worker array;
  stopped : bool Atomic.t;
  mutable domains : unit Domain.t array;
  jobs : int Atomic.t;        (* parallel_map calls + pinned submissions *)
  fallbacks : int Atomic.t;   (* nested parallel_map calls run inline *)
}

(* True while the current domain is executing pool work: set permanently
   in worker domains and around the helper in calling domains. A
   [parallel_map] issued from such a context runs inline (and is counted
   in [fallbacks]) instead of fanning out — the enclosing job already
   owns the domains, and an inner fan-out would only add queue traffic. *)
let in_pool_context : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* ------------------------- workers, creation -------------------------- *)

(* Tasks must not raise (helpers record failures in their job, the
   server's pinned tasks answer ERR internal); this catch-all is the last
   line of defense so a bug cannot kill a worker domain. *)
let run_task task = try task () with _ -> ()

let worker_loop pool w =
  Domain.DLS.set in_pool_context true;
  let rec loop () =
    Mutex.lock w.mutex;
    (* a submission signals under the same lock, so no wakeup is lost *)
    while Queue.is_empty w.tasks && not (Atomic.get pool.stopped) do
      Condition.wait w.cond w.mutex
    done;
    if Atomic.get pool.stopped then Mutex.unlock w.mutex
    else begin
      let task = Queue.pop w.tasks in
      Mutex.unlock w.mutex;
      run_task task;
      loop ()
    end
  in
  loop ()

let push w task =
  Mutex.lock w.mutex;
  Queue.push task w.tasks;
  Condition.signal w.cond;
  Mutex.unlock w.mutex

let default_num_domains () =
  match Sys.getenv_opt "DTSCHED_DOMAINS" with
  | None -> max 1 (Domain.recommended_domain_count () - 1)
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf
               "DTSCHED_DOMAINS must be a positive integer (got %S)" s))

let create ?num_domains () =
  let n =
    match num_domains with
    | Some n when n > 0 -> n
    | Some n ->
        invalid_arg
          (Printf.sprintf "Pool.create: num_domains must be positive (got %d)" n)
    | None -> default_num_domains ()
  in
  let pool =
    {
      workers =
        Array.init n (fun _ ->
            { mutex = Mutex.create (); cond = Condition.create (); tasks = Queue.create () });
      stopped = Atomic.make false;
      domains = [||];
      jobs = Atomic.make 0;
      fallbacks = Atomic.make 0;
    }
  in
  pool.domains <-
    Array.map (fun w -> Domain.spawn (fun () -> worker_loop pool w)) pool.workers;
  pool

let num_domains pool = Array.length pool.workers

let stats pool =
  { jobs = Atomic.get pool.jobs; fallbacks = Atomic.get pool.fallbacks; steals = 0 }

(* --------------------------- parallel_map ---------------------------- *)

let check_running pool what =
  if Atomic.get pool.stopped then
    invalid_arg (Printf.sprintf "Pool.%s: pool is shut down" what)

let fanout pool f a n =
  let results = Array.make n None in
  let next = Atomic.make 0 and finished = Atomic.make 0 in
  let failure = Atomic.make None in
  let done_mutex = Mutex.create () and done_cond = Condition.create () in
  let helper () =
    let previous = Domain.DLS.get in_pool_context in
    Domain.DLS.set in_pool_context true;
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (if Atomic.get failure = None then
           try results.(i) <- Some (f a.(i))
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set failure None (Some (e, bt))));
        (* indices skipped after a failure count too, so [finished]
           always reaches [n] and nobody waits on an abandoned tail *)
        if Atomic.fetch_and_add finished 1 = n - 1 then begin
          Mutex.lock done_mutex;
          Condition.broadcast done_cond;
          Mutex.unlock done_mutex
        end;
        claim ()
      end
    in
    claim ();
    Domain.DLS.set in_pool_context previous
  in
  for w = 0 to min (Array.length pool.workers) (n - 1) - 1 do
    push pool.workers.(w) helper
  done;
  helper ();
  (* the slots are read only once [finished] says every write is done *)
  Mutex.lock done_mutex;
  while Atomic.get finished < n do
    Condition.wait done_cond done_mutex
  done;
  Mutex.unlock done_mutex;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> Array.map (function Some v -> v | None -> assert false) results

let parallel_map pool f a =
  check_running pool "parallel_map";
  Atomic.incr pool.jobs;
  let n = Array.length a in
  if n <= 1 then Array.map f a
  else if Domain.DLS.get in_pool_context then begin
    (* nested call from inside pool work: the enclosing job already owns
       the domains — run inline, visibly (see stats.fallbacks) *)
    Atomic.incr pool.fallbacks;
    Array.map f a
  end
  else fanout pool f a n

(* ------------------------ submission, shutdown ------------------------ *)

let submit pool ~shard task =
  check_running pool "submit";
  if shard < 0 then
    invalid_arg (Printf.sprintf "Pool.submit: shard must be >= 0 (got %d)" shard);
  Atomic.incr pool.jobs;
  push pool.workers.(shard mod Array.length pool.workers) task

let shutdown pool =
  if not (Atomic.exchange pool.stopped true) then begin
    Array.iter
      (fun w ->
        Mutex.lock w.mutex;
        Condition.broadcast w.cond;
        Mutex.unlock w.mutex)
      pool.workers;
    Array.iter Domain.join pool.domains
  end

let with_pool ?num_domains f =
  let pool = create ?num_domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
