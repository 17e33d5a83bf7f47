(** The proof-worker process body.

    The daemon {!Unix.fork}s each worker {e before} spawning any domains
    (the farm's domain pool only ever runs inside workers, never in the
    daemon, so forking stays safe), and the child immediately enters
    {!main}: a blocking loop taking one {!Protocol.assignment} frame at a
    time, running {!Echo.Verify.run} on it, and framing back [Stage]
    events as the job progresses, then a [Verdict] ({!Protocol.Frames}).
    EOF on the assignment pipe means the daemon is gone: the worker exits.

    The worker never raises out of a job — [Verify.run] already folds
    every failure into the outcome's verdict — so the only ways a worker can
    die mid-job are a real crash (OOM, kill) or the test hook
    ([js_fail = "crash"], honoured on attempt 1 only, which [_exit]s
    mid-stage to exercise the daemon's respawn/retry path).

    Proof-cache sharing: each worker opens the shared cache directory
    once and {!Farm.Cache.refresh}es before every job, so proofs saved by
    sibling workers (a proof run that adds an entry saves on completion)
    become hits here without any daemon-side plumbing; while no sibling
    has saved, the refresh reads nothing.

    The worker outlives its jobs, and so do its per-process memos: a job
    that shares subprograms with an earlier one reuses their generated
    VCs ({!Vcgen.generate}).  With telemetry on, the job span carries the
    job's [vcgen_memo_hits], [vcgen_memo_misses] and
    [vcgen_memo_evictions], the counters the orchestrated run published
    (the collector is reset at job start). *)

val main :
  ?cache_dir:string ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit ->
  'a
(** Never returns: terminates the process with [Unix._exit] (0 on EOF).
    Uses [_exit], not [exit], so a forked child never runs the parent's
    at_exit handlers. *)

val run_assignment :
  ?cache:Farm.Cache.t ->
  emit:(Protocol.event -> unit) ->
  Protocol.assignment ->
  Protocol.wire_outcome
(** One job, factored out of the process loop for direct testing: streams
    [Stage] events through [emit] and returns the wire outcome (the loop
    wraps it in a [Verdict] event).  Honours the crash hook by [_exit]ing
    the process — only call in a process you own. *)
