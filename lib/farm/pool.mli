(** Work-stealing pool over OCaml 5 domains.

    Built for the proof farm: a {e static} batch of independent jobs
    (VCs), each potentially expensive, dispatched cost-descending so the
    longest proofs start first and the tail of the schedule is short.

    Scheduling model: jobs are sorted by descending [priority] and dealt
    round-robin into per-worker deques.  A worker pops its own deque from
    the costly end; when empty it steals from the {e cheap} end of the
    fullest other deque (cheap steals keep the victim's expensive work
    local, minimising contention on long jobs).  The job set is fixed up
    front, so a worker whose scan finds every deque empty can simply
    exit — no condition-variable dance is needed for termination.

    Determinism: results are returned {b in input order}, so as long as
    [f] itself is execution-order independent (the prover is, after its
    per-call session rework), the output is bit-identical for any [jobs]
    count.  [jobs <= 1] runs everything inline on the calling domain
    without spawning.

    Telemetry: each worker domain runs under a [cat_worker] span
    (parented on the caller's current span, so the trace nests the farm
    under the dispatching stage), annotated with its job and steal
    counts plus utilisation attributes — [busy_s] (seconds applying
    jobs), [idle_s] (wall − busy) and [steal_s] (seconds in the
    steal/scan path) — for {!Profile.worker_stats}; every successful
    steal bumps the [farm_steals] counter.  The utilisation clock reads
    happen only while collection is enabled. *)

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

val run :
  ?jobs:int ->
  priority:('a -> int) ->
  f:('a -> 'b) ->
  'a array ->
  'b array * stats
(** [run ~jobs ~priority ~f items] applies [f] to every item and returns
    the results in input order.  [jobs] defaults to [1]; it is clamped to
    [1 .. 64] and honored even above the visible core count (extra
    domains time-share — slower, never wrong — so a container that
    reports one core cannot silently disable the farm).  If any [f] call
    raises, the first exception (in worker-scan order) is re-raised on
    the caller's domain after all workers have stopped. *)
