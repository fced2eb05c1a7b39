(** A work-stealing scheduler over OCaml 5 domains.

    The driver's unit of parallel work is coarse — one input file per
    item — so the scheduler optimizes for simplicity and determinism
    rather than for fine-grained stealing throughput:

    - every item is known up front ([map] over indices [0 .. n-1]), so
      there is no dynamic spawning and no idle blocking: a worker that
      finds every deque empty is done;
    - each worker owns a deque seeded with a contiguous block of item
      indices.  The owner takes from the low end (input order, which
      keeps a warm expansion cache warm for humanly-ordered corpora);
      thieves steal from the high end, so a thief grabs the work its
      victim would have reached last;
    - deques are mutex-per-deque rather than lock-free: with whole-file
      items a deque operation is tens of nanoseconds against
      milliseconds of expansion work, so the lock is never contended
      enough to matter, and the mutex gives the happens-before edge
      that publishes a stolen item's index to the thief.

    Early stop: when [stop] returns true for item [i]'s result (a fatal
    diagnostic without [--keep-going]), items {e after} [i] in input
    order are cancelled — but everything before [i] still runs, because
    the caller must be able to find the {e first} stopping item exactly
    as the sequential pipeline would.  (A global stop would be wrong:
    with block-distributed deques a worker can hit a fatal at index 9
    while index 3 — also fatal — has not run yet; cancelling everything
    would report 9 where [--jobs 1] reports 3.)  The cancellation
    threshold is a CAS-min over stopping indices; claimed items above it
    are discarded unrun, so their result slots stay [None].

    Results land in an array indexed by item — input order is
    reconstruction-free — and the first worker exception (the work
    function is expected to catch its own; this is a backstop) is
    re-raised in the caller after every domain joins. *)

type deque = {
  mutex : Mutex.t;
  items : int array;  (** item indices, fixed at seed time *)
  mutable lo : int;  (** owner's next claim (inclusive) *)
  mutable hi : int;  (** thieves' end (exclusive) *)
}

let take_own (d : deque) : int option =
  Mutex.lock d.mutex;
  let r =
    if d.lo < d.hi then begin
      let i = d.items.(d.lo) in
      d.lo <- d.lo + 1;
      Some i
    end
    else None
  in
  Mutex.unlock d.mutex;
  r

let steal (d : deque) : int option =
  Mutex.lock d.mutex;
  let r =
    if d.lo < d.hi then begin
      d.hi <- d.hi - 1;
      Some d.items.(d.hi)
    end
    else None
  in
  Mutex.unlock d.mutex;
  r

(** [recommended ()] — the runtime's view of usable cores; what
    [--jobs 0]/[--jobs auto] resolves to. *)
let recommended () : int = Domain.recommended_domain_count ()

let map ~(jobs : int) ?(stop : ('r -> bool) option) (n : int)
    (f : int -> 'r) : 'r option array =
  let jobs = max 1 (min jobs (max 1 n)) in
  let results : 'r option array = Array.make n None in
  (* items with index > [limit] are cancelled; [max_int] = run all *)
  let limit = Atomic.make max_int in
  let lower_limit_to i =
    let rec go () =
      let cur = Atomic.get limit in
      if i < cur && not (Atomic.compare_and_set limit cur i) then go ()
    in
    go ()
  in
  let hard_stop = Atomic.make false in
  let failure : exn option Atomic.t = Atomic.make None in
  (* Seed worker [w] with the contiguous block [w*n/jobs, (w+1)*n/jobs). *)
  let deques =
    Array.init jobs (fun w ->
        let first = w * n / jobs and last = (w + 1) * n / jobs in
        {
          mutex = Mutex.create ();
          items = Array.init (last - first) (fun i -> first + i);
          lo = 0;
          hi = last - first;
        })
  in
  let run_item i =
    if i <= Atomic.get limit then
      match f i with
      | r ->
          results.(i) <- Some r;
          (match stop with
          | Some p when p r -> lower_limit_to i
          | _ -> ())
      | exception e ->
          (* Backstop: record the first failure, stop the pool, re-raise
             after join so the caller sees it on its own stack. *)
          if Atomic.compare_and_set failure None (Some e) then
            Atomic.set hard_stop true
  in
  let worker w () =
    let mine = deques.(w) in
    let rec next_steal v =
      if v >= jobs then None
      else
        let victim = deques.((w + v) mod jobs) in
        match steal victim with Some i -> Some i | None -> next_steal (v + 1)
    in
    let rec loop () =
      if not (Atomic.get hard_stop) then
        match take_own mine with
        | Some i ->
            run_item i;
            loop ()
        | None -> (
            match next_steal 1 with
            | Some i ->
                run_item i;
                loop ()
            | None -> ())
    in
    loop ()
  in
  (* The calling domain is worker 0; [jobs - 1] domains are spawned.
     Each spawned domain inherits the caller's trace context so events
     recorded on a worker domain join the caller's trace id. *)
  let trace = Obs.current_trace () in
  let spawned =
    Array.init
      (jobs - 1)
      (fun k ->
        Domain.spawn (fun () ->
            Obs.set_trace trace;
            worker (k + 1) ()))
  in
  worker 0 ();
  Array.iter Domain.join spawned;
  (match Atomic.get failure with Some e -> raise e | None -> ());
  results
