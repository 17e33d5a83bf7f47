(* Work-stealing pool over OCaml 5 domains — see pool.mli for the model.

   Jobs arrive in batches ([submit]) while the helper domains run; each
   batch is sorted cost-descending and dealt round-robin into the
   per-worker deques, and workers only ever remove.  A worker that finds
   every deque empty waits for the next batch or for [close]; once the
   pool is closed, an empty scan means it is done.  One mutex per deque,
   held only around index arithmetic, never around a job; one pool mutex
   for batches, the closed flag and the waits. *)

type stats = {
  ps_jobs : int;
  ps_workers : int;
  ps_steals : int;
}

(* One submitted job and, once it ran, its result.  The result is written
   by the domain that ran the job and read by [close] after joining it. *)
type ('a, 'b) job = {
  jb_item : 'a;
  mutable jb_result : 'b option;
}

(* One worker's slice of the schedule.  [dq_lo] walks forward (the owner
   pops the oldest, costliest end), [dq_hi] marks the newest job (thieves
   take the cheap end); the deque is empty when lo > hi.  A batch appends
   after [dq_hi]. *)
type ('a, 'b) deque = {
  mutable dq_items : ('a, 'b) job array;
  mutable dq_lo : int;
  mutable dq_hi : int;
  dq_mu : Mutex.t;
}

type ('a, 'b) t = {
  p_f : 'a -> 'b;
  p_priority : 'a -> int;
  p_workers : int;
  p_deques : ('a, 'b) deque array;
  mutable p_jobs : ('a, 'b) job list;  (* every submitted job, newest first *)
  mutable p_batches : int;  (* bumped by every batch, to wake waiters *)
  mutable p_closed : bool;
  p_mu : Mutex.t;
  p_wake : Condition.t;
  p_failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  p_steals : int array;
  p_parent : int;
  mutable p_helpers : unit Domain.t array;
}

let with_mu mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let pop_own dq =
  with_mu dq.dq_mu (fun () ->
      if dq.dq_lo > dq.dq_hi then None
      else begin
        let j = dq.dq_items.(dq.dq_lo) in
        dq.dq_lo <- dq.dq_lo + 1;
        Some j
      end)

let steal dq =
  with_mu dq.dq_mu (fun () ->
      if dq.dq_lo > dq.dq_hi then None
      else begin
        let j = dq.dq_items.(dq.dq_hi) in
        dq.dq_hi <- dq.dq_hi - 1;
        Some j
      end)

let remaining dq = with_mu dq.dq_mu (fun () -> max 0 (dq.dq_hi - dq.dq_lo + 1))

(* append a batch's share, compacting away the taken prefix *)
let push dq (share : ('a, 'b) job list) =
  with_mu dq.dq_mu (fun () ->
      let live = max 0 (dq.dq_hi - dq.dq_lo + 1) in
      let items =
        Array.append (Array.sub dq.dq_items dq.dq_lo live) (Array.of_list share)
      in
      dq.dq_items <- items;
      dq.dq_lo <- 0;
      dq.dq_hi <- Array.length items - 1)

(* Honor the requested width even above the visible core count: domains
   beyond cores merely time-share (still correct, just slower), whereas
   clamping to [recommended_domain_count] would silently disable the farm
   in containers that report a single core.  The cap only guards against
   absurd requests. *)
let clamp_jobs jobs = max 1 (min jobs 64)

(* The farm's auto width: the visible core count, never more.  Callers
   that default to a fixed width (the old jobs=4 habit) oversubscribe
   single-core hosts badly — jobs=4 measured 3x slower than jobs=1 at one
   visible core (DESIGN.md §11, "Default width") — so every "pick a
   width for me" site should go through [default_jobs] instead. *)
let visible_cores () = max 1 (Domain.recommended_domain_count ())
let default_jobs () = clamp_jobs (visible_cores ())

let oversubscribed ~jobs =
  let cores = visible_cores () in
  if jobs > cores then Some cores else None

let worker p w () =
  let span =
    Telemetry.start_span ~cat:Telemetry.cat_worker ~parent:p.p_parent
      (Printf.sprintf "worker-%d" w)
  in
  (* utilisation accounting only when the collector is live: the clock
     reads stay off the disabled hot path *)
  let timed = Telemetry.enabled () in
  let t_begin = if timed then Logic.Clock.now () else 0.0 in
  let busy = ref 0.0 and stealing = ref 0.0 and ran = ref 0 in
  let my = p.p_deques.(w) in
  let next () =
    match pop_own my with
    | Some j -> Some j
    | None ->
        let t0 = if timed then Logic.Clock.now () else 0.0 in
        (* steal from the victim with the most work left *)
        let best = ref (-1) and best_left = ref 0 in
        Array.iteri
          (fun v dq ->
            if v <> w then begin
              let left = remaining dq in
              if left > !best_left then begin
                best := v;
                best_left := left
              end
            end)
          p.p_deques;
        let got =
          if !best < 0 then None
          else
            match steal p.p_deques.(!best) with
            | Some j ->
                p.p_steals.(w) <- p.p_steals.(w) + 1;
                Some j
            | None -> None
        in
        if timed then stealing := !stealing +. Logic.Clock.elapsed t0;
        got
  in
  (* Nothing to take: wait for the next batch, unless the pool is closed
     and no batch came since [seen] — then the scan that found nothing
     was final.  [true] to scan again. *)
  let wait seen =
    with_mu p.p_mu (fun () ->
        while (not p.p_closed) && p.p_batches = seen
              && Atomic.get p.p_failure = None do
          Condition.wait p.p_wake p.p_mu
        done;
        p.p_batches <> seen)
  in
  let rec loop () =
    if Atomic.get p.p_failure = None then begin
      let seen = with_mu p.p_mu (fun () -> p.p_batches) in
      match next () with
      | Some j ->
          let t0 = if timed then Logic.Clock.now () else 0.0 in
          (match p.p_f j.jb_item with
          | r ->
              j.jb_result <- Some r;
              incr ran
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              (* keep the first failure; later ones are casualties of
                 the same abort *)
              ignore (Atomic.compare_and_set p.p_failure None (Some (e, bt)));
              with_mu p.p_mu (fun () -> Condition.broadcast p.p_wake));
          if timed then busy := !busy +. Logic.Clock.elapsed t0;
          loop ()
      | None -> if wait seen then loop ()
    end
  in
  loop ();
  (* metric updates batch per worker: one locked merge here instead of
     a mutex acquisition per steal / per job on the prove path *)
  let steals = p.p_steals.(w) in
  if steals > 0 then Telemetry.count ~by:steals "farm_steals";
  Telemetry.Batch.flush ();
  let util_attrs =
    if not timed then []
    else
      let wall = Logic.Clock.elapsed t_begin in
      [
        ("busy_s", Telemetry.F !busy);
        ("idle_s", Telemetry.F (Float.max 0.0 (wall -. !busy)));
        ("steal_s", Telemetry.F !stealing);
      ]
  in
  Telemetry.finish_span
    ~attrs:
      (("jobs", Telemetry.I !ran) :: ("steals", Telemetry.I steals) :: util_attrs)
    span

let create ?(jobs = 1) ?parent ~priority ~f () =
  let workers = clamp_jobs jobs in
  let p =
    {
      p_f = f;
      p_priority = priority;
      p_workers = workers;
      p_deques =
        Array.init workers (fun _ ->
            { dq_items = [||]; dq_lo = 0; dq_hi = -1; dq_mu = Mutex.create () });
      p_jobs = [];
      p_batches = 0;
      p_closed = false;
      p_mu = Mutex.create ();
      p_wake = Condition.create ();
      p_failure = Atomic.make None;
      p_steals = Array.make workers 0;
      p_parent =
        (match parent with Some id -> id | None -> Telemetry.current_span ());
      p_helpers = [||];
    }
  in
  (* width 1 spawns nothing: [close] runs every job on the caller *)
  p.p_helpers <- Array.init (workers - 1) (fun k -> Domain.spawn (worker p (k + 1)));
  p

let submit p items =
  let n = Array.length items in
  if n > 0 then begin
    let jobs = Array.map (fun x -> { jb_item = x; jb_result = None }) items in
    with_mu p.p_mu (fun () ->
        if p.p_closed then invalid_arg "Farm.Pool.submit: the pool is closed";
        p.p_jobs <- List.rev_append (Array.to_list jobs) p.p_jobs;
        if p.p_workers > 1 then begin
          (* cost-descending, dealt round-robin so every worker gets a
             mix of heavy and light jobs *)
          let order = Array.init n (fun i -> i) in
          let cost = Array.map p.p_priority items in
          Array.sort (fun a b -> compare cost.(b) cost.(a)) order;
          Array.iteri
            (fun w dq ->
              let share = ref [] in
              for k = n - 1 downto 0 do
                if k mod p.p_workers = w then share := jobs.(order.(k)) :: !share
              done;
              if !share <> [] then push dq !share)
            p.p_deques;
          p.p_batches <- p.p_batches + 1;
          Condition.broadcast p.p_wake
        end)
  end

let close p =
  let jobs =
    with_mu p.p_mu (fun () ->
        p.p_closed <- true;
        Condition.broadcast p.p_wake;
        Array.of_list (List.rev p.p_jobs))
  in
  let n = Array.length jobs in
  if p.p_workers = 1 then
    (* inline path: no domains — and the baseline the parallel path must
       reproduce bit-identically *)
    ( Array.map (fun j -> p.p_f j.jb_item) jobs,
      { ps_jobs = n; ps_workers = 1; ps_steals = 0 } )
  else begin
    worker p 0 ();
    Array.iter Domain.join p.p_helpers;
    (match Atomic.get p.p_failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    let results =
      Array.map
        (fun j ->
          match j.jb_result with
          | Some r -> r
          | None -> invalid_arg "Farm.Pool.close: job produced no result")
        jobs
    in
    ( results,
      {
        ps_jobs = n;
        ps_workers = p.p_workers;
        ps_steals = Array.fold_left ( + ) 0 p.p_steals;
      } )
  end

let run ?(jobs = 1) ~priority ~f items =
  let p = create ~jobs:(min jobs (Array.length items)) ~priority ~f () in
  submit p items;
  close p
