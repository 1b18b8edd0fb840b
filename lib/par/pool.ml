(* A persistent pool of OCaml 5 worker domains.

   The workers share one FIFO of tasks under one lock. A [parallel_map]
   call appends min(workers, n - 1) copies of one helper closure to it
   and runs the same helper on the calling domain. A helper claims the
   next index from the job's shared counter until none is left. The
   caller's helper alone can claim every index, so a job completes
   whatever the workers are doing (no deadlock, also for concurrent
   calls from several domains), and a helper that runs after its job
   ended, queued behind another job's work, finds no index left and
   returns at once.

   Results land in a preallocated slot per index, so collection is
   deterministic and in index order no matter which domain computed
   what: bit-identical to the sequential [Array.map]. *)

type stats = { jobs : int; fallbacks : int; steals : int }

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  tasks : (unit -> unit) Queue.t;
  stopped : bool Atomic.t;
  mutable domains : unit Domain.t array;
  jobs : int Atomic.t;        (* parallel_map calls *)
  fallbacks : int Atomic.t;   (* nested parallel_map calls run inline *)
}

(* True while the current domain is executing pool work: set permanently
   in worker domains and around the helper in calling domains. A
   [parallel_map] issued from such a context runs inline (and is counted
   in [fallbacks]) instead of fanning out — the enclosing job already
   owns the domains, and an inner fan-out would only add queue traffic. *)
let in_pool_context : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* ------------------------- workers, creation -------------------------- *)

(* Helpers record failures in their job and never raise; this
   catch-all is the last line of defense so a bug cannot kill a worker
   domain. *)
let run_task task = try task () with _ -> ()

let worker_loop pool =
  Domain.DLS.set in_pool_context true;
  let rec loop () =
    Mutex.lock pool.mutex;
    (* a push broadcasts under the same lock, so no wakeup is lost *)
    while Queue.is_empty pool.tasks && not (Atomic.get pool.stopped) do
      Condition.wait pool.cond pool.mutex
    done;
    if Atomic.get pool.stopped then Mutex.unlock pool.mutex
    else begin
      let task = Queue.pop pool.tasks in
      Mutex.unlock pool.mutex;
      run_task task;
      loop ()
    end
  in
  loop ()

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
      mutex = Mutex.create ();
      cond = Condition.create ();
      tasks = Queue.create ();
      stopped = Atomic.make false;
      domains = [||];
      jobs = Atomic.make 0;
      fallbacks = Atomic.make 0;
    }
  in
  pool.domains <- Array.init n (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let num_domains pool = Array.length pool.domains

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
  Mutex.lock pool.mutex;
  for _ = 1 to min (num_domains pool) (n - 1) do
    Queue.push helper pool.tasks
  done;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex;
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

(* ------------------------------ shutdown ------------------------------ *)

let shutdown pool =
  if not (Atomic.exchange pool.stopped true) then begin
    Mutex.lock pool.mutex;
    Condition.broadcast pool.cond;
    Mutex.unlock pool.mutex;
    Array.iter Domain.join pool.domains
  end

let with_pool ?num_domains f =
  let pool = create ?num_domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
