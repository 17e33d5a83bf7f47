(* Work-stealing pool over OCaml 5 domains — see pool.mli for the model.

   The job set is static: [run] receives every job up front, deals them
   into per-worker deques, and workers only ever remove.  That makes
   termination trivial (a worker that sees every deque empty is done) and
   keeps the locking story small: one mutex per deque, held only around
   index arithmetic, never around a job. *)

type stats = {
  ps_jobs : int;
  ps_workers : int;
  ps_steals : int;
}

(* One worker's slice of the schedule.  [dq_lo] walks forward (owner pops
   the costly end), [dq_hi] walks backward (thieves take the cheap end);
   the deque is empty when lo > hi. *)
type deque = {
  dq_items : int array;    (* indices into the input array, cost-descending *)
  mutable dq_lo : int;
  mutable dq_hi : int;
  dq_mu : Mutex.t;
}

let with_mu mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let pop_own dq =
  with_mu dq.dq_mu (fun () ->
      if dq.dq_lo > dq.dq_hi then None
      else begin
        let i = dq.dq_items.(dq.dq_lo) in
        dq.dq_lo <- dq.dq_lo + 1;
        Some i
      end)

let steal dq =
  with_mu dq.dq_mu (fun () ->
      if dq.dq_lo > dq.dq_hi then None
      else begin
        let i = dq.dq_items.(dq.dq_hi) in
        dq.dq_hi <- dq.dq_hi - 1;
        Some i
      end)

let remaining dq = with_mu dq.dq_mu (fun () -> max 0 (dq.dq_hi - dq.dq_lo + 1))

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

let run (type a b) ?(jobs = 1) ~priority ~(f : a -> b) (items : a array) :
    b array * stats =
  let n = Array.length items in
  let jobs = clamp_jobs jobs in
  if n = 0 then ([||], { ps_jobs = 0; ps_workers = 1; ps_steals = 0 })
  else if jobs = 1 || n = 1 then begin
    (* inline path: no domains, no locks — and the baseline the parallel
       path must reproduce bit-identically *)
    let results = Array.map f items in
    (results, { ps_jobs = n; ps_workers = 1; ps_steals = 0 })
  end
  else begin
    let workers = min jobs n in
    (* cost-descending schedule, dealt round-robin so every worker gets a
       mix of heavy and light jobs *)
    let order = Array.init n (fun i -> i) in
    let cost = Array.map priority items in
    Array.sort (fun a b -> compare cost.(b) cost.(a)) order;
    let deques =
      Array.init workers (fun w ->
          let mine = ref [] in
          for k = n - 1 downto 0 do
            if k mod workers = w then mine := order.(k) :: !mine
          done;
          let items = Array.of_list !mine in
          { dq_items = items; dq_lo = 0; dq_hi = Array.length items - 1;
            dq_mu = Mutex.create () })
    in
    let results : b option array = Array.make n None in
    let failure : (exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let steals = Array.make workers 0 in
    let ran = Array.make workers 0 in
    let parent = Telemetry.current_span () in
    let worker w () =
      let span =
        Telemetry.start_span ~cat:Telemetry.cat_worker ~parent
          (Printf.sprintf "worker-%d" w)
      in
      (* utilisation accounting only when the collector is live: the clock
         reads stay off the disabled hot path *)
      let timed = Telemetry.enabled () in
      let t_begin = if timed then Logic.Clock.now () else 0.0 in
      let busy = ref 0.0 and stealing = ref 0.0 in
      let my = deques.(w) in
      let next () =
        match pop_own my with
        | Some i -> Some i
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
              deques;
            let got =
              if !best < 0 then None
              else
                match steal deques.(!best) with
                | Some i ->
                    steals.(w) <- steals.(w) + 1;
                    Some i
                | None -> None
            in
            if timed then stealing := !stealing +. Logic.Clock.elapsed t0;
            got
      in
      let rec loop () =
        if Atomic.get failure <> None then ()
        else
          match next () with
          | None -> ()
          | Some i ->
              let t0 = if timed then Logic.Clock.now () else 0.0 in
              (match f items.(i) with
              | r ->
                  results.(i) <- Some r;
                  ran.(w) <- ran.(w) + 1
              | exception e ->
                  let bt = Printexc.get_raw_backtrace () in
                  (* keep the first failure; later ones are casualties of
                     the same abort *)
                  ignore
                    (Atomic.compare_and_set failure None (Some (e, bt))));
              if timed then busy := !busy +. Logic.Clock.elapsed t0;
              loop ()
      in
      loop ();
      (* metric updates batch per worker: one locked merge here instead of
         a mutex acquisition per steal / per job on the prove path *)
      if steals.(w) > 0 then Telemetry.count ~by:steals.(w) "farm_steals";
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
          (("jobs", Telemetry.I ran.(w))
           :: ("steals", Telemetry.I steals.(w))
           :: util_attrs)
        span
    in
    let domains =
      Array.init (workers - 1) (fun k -> Domain.spawn (worker (k + 1)))
    in
    worker 0 ();
    Array.iter Domain.join domains;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    let results =
      Array.map
        (function
          | Some r -> r
          | None -> invalid_arg "Farm.Pool.run: job produced no result")
        results
    in
    ( results,
      {
        ps_jobs = n;
        ps_workers = workers;
        ps_steals = Array.fold_left ( + ) 0 steals;
      } )
  end
