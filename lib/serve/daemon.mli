(** The [echo serve] daemon: a long-running verification service.

    One single-domain event loop ([select]-driven, no threads) owns a
    bounded multi-level {!Jobq}, a {!Supervisor} pool of forked proof
    workers, and the client connections.  Client traffic is NDJSON
    ({!Protocol}), over a Unix-domain socket ({!run_socket}) or a plain
    file-descriptor pair ({!run_fd} — how tests, the bench harness and
    the CI smoke drive the daemon without a filesystem socket).

    Availability contract: a worker crash mid-job is {e never} fatal to
    the daemon.  The supervisor reaps and respawns, the job is retried
    ([dc_max_attempts] total attempts), and past the budget the client
    receives a [failed] verdict with a [service]-class fault — exit code
    8 at the CLI, daemon still serving.

    Deduplication: completed outcomes are indexed by a digest of the
    verdict-affecting submission fields (source, analyze flag, deadline,
    resolved baseline, fault injection).  A duplicate submission is
    answered immediately from the table — [Verdict] with [ev_dedup] set
    — without queueing or forking anything.  Below that, workers share
    one proof cache directory, so even non-identical jobs hit at VC
    granularity.

    Incremental jobs: a submission naming a [baseline_job] is routed
    through change-impact analysis against that job's stored outline and
    per-VC verdicts ({!Echo.Verify} carry), re-proving only impacted
    subprograms.  The outcome table keeps each job's wire outcome —
    verdicts, summaries, outline — and no program source; a baseline job
    whose program never checked has no outline, and an edit naming it
    runs cold.

    Shutdown: SIGTERM (or a [Shutdown] request) stops intake, lets
    running jobs finish, checkpoints still-queued jobs to
    [state_dir/queue.jsonl] (reloaded and re-run on next boot), sends
    [Bye] to connected clients and returns.  SIGPIPE is ignored for the
    daemon's lifetime (dead peers surface as [Error]s, not signals). *)

type config = {
  dc_jobs : int;           (** worker processes; [0] = auto
                               ({!Farm.Pool.default_jobs}) *)
  dc_capacity : int;       (** queue bound (backpressure past it) *)
  dc_levels : int;         (** priority levels *)
  dc_max_attempts : int;   (** attempts per job incl. crash retries *)
  dc_cache_dir : string option;  (** shared proof cache *)
  dc_state_dir : string option;  (** checkpoints + telemetry scratch *)
  dc_telemetry : bool;     (** collect a daemon trace (per-job spans with
                               worker span trees merged in); written to
                               [state_dir/serve-trace.jsonl] on exit *)
  dc_log : (string -> unit) option;  (** verbose progress logging *)
}

val default_config : config
(** auto workers, capacity 64, 3 levels, 2 attempts, no cache dir, no
    state dir, telemetry off, quiet. *)

val run_fd :
  ?config:config -> input:Unix.file_descr -> output:Unix.file_descr ->
  unit -> Protocol.stats
(** Serve a single pre-connected client (e.g. one half of a socketpair;
    [input] and [output] may be the same descriptor).  Returns — with the
    final stats — when the client disconnects or asks for [Shutdown] and
    all accepted work has finished. *)

val run_socket : ?config:config -> path:string -> unit -> Protocol.stats
(** Listen on a Unix-domain socket (unlinking any stale one), serving
    clients until SIGTERM/SIGINT or a [Shutdown] request. *)
