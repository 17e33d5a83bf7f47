(** Work-stealing pool over OCaml 5 domains.

    Built for the proof farm: independent jobs (VCs, certification steps,
    lemmas), each potentially expensive, dispatched cost-descending so
    the longest start first and the tail of the schedule is short.

    A pool takes jobs while it runs.  {!create} spawns [jobs - 1] helper
    domains, which start on the first batch at once; {!submit} adds a
    batch; {!close} makes the calling domain the last worker, runs until
    every job is done and joins the helpers.  {!run} is a pool fed one
    batch and closed.

    Scheduling model: each batch is sorted by descending [priority] and
    dealt round-robin into the per-worker deques, after the jobs already
    there.  A worker pops its own deque from the oldest, costly end; when
    empty it steals from the {e cheap} end of the fullest other deque
    (cheap steals keep the victim's expensive work local, minimising
    contention on long jobs).  A worker that finds every deque empty
    waits for the next batch; once the pool is closed it exits.

    Determinism: results are returned {b in submission order}, so as long
    as [f] itself is execution-order independent (the prover is, after
    its per-call session rework), the output is bit-identical for any
    [jobs] count.  At width 1 nothing is spawned: {!close} runs every job
    on the calling domain, in submission order.

    Telemetry: each worker runs under a [cat_worker] span (parented on
    [?parent], by default the creator's current span, so the trace nests
    the farm under the dispatching stage), annotated with its job and
    steal counts plus utilisation attributes — [busy_s] (seconds applying
    jobs), [idle_s] (wall − busy, waits for a batch included) and
    [steal_s] (seconds in the steal/scan path) — for
    {!Profile.worker_stats}; every successful steal bumps the
    [farm_steals] counter.  The utilisation clock reads happen only while
    collection is enabled. *)

type stats = {
  ps_jobs : int;        (** jobs executed *)
  ps_workers : int;     (** domains used (1 = inline, no spawn) *)
  ps_steals : int;      (** successful steals across all workers *)
}

val visible_cores : unit -> int
(** [Domain.recommended_domain_count], floored at 1. *)

val default_jobs : unit -> int
(** The farm's auto width: {!visible_cores} (clamped like [run]'s [jobs]).
    Use this wherever a width must be {e chosen} rather than requested —
    defaulting to a fixed number oversubscribes single-core hosts (jobs=4
    measured 3x slower than jobs=1 at one visible core; DESIGN.md §11,
    "Default width"). *)

val oversubscribed : jobs:int -> int option
(** [Some cores] when an explicitly requested [jobs] exceeds the visible
    core count — the caller should warn (extra domains only time-share);
    [None] when the request fits. *)

type ('a, 'b) t
(** A running pool applying ['a -> 'b] to its jobs. *)

val create :
  ?jobs:int -> ?parent:int -> priority:('a -> int) -> f:('a -> 'b) -> unit ->
  ('a, 'b) t
(** [jobs] defaults to [1]; it is clamped to [1 .. 64] and honored even
    above the visible core count (extra domains time-share — slower,
    never wrong — so a container that reports one core cannot silently
    disable the farm).  [parent] is the span the worker spans nest
    under. *)

val submit : ('a, 'b) t -> 'a array -> unit
(** Add a batch.  The helpers may start on it before [submit] returns.
    @raise Invalid_argument once the pool is closed. *)

val close : ('a, 'b) t -> 'b array * stats
(** Run every submitted job to completion, the calling domain working
    too, join the helpers, and return the results in submission order.
    If any [f] call raised, the first exception (in worker-scan order) is
    re-raised here after all workers have stopped; workers take no job
    after a failure. *)

val run :
  ?jobs:int ->
  priority:('a -> int) ->
  f:('a -> 'b) ->
  'a array ->
  'b array * stats
(** [run ~jobs ~priority ~f items] applies [f] to every item and returns
    the results in input order: a pool of [min jobs (length items)]
    workers, fed [items] as one batch, then closed. *)
