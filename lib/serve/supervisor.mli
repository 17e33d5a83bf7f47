(** Worker-process pool supervision for the serve daemon.

    Forks [jobs] worker processes, each wired to the daemon by two pipes
    (assignments down, events up), and tracks which worker is busy with
    which assignment.  Crash detection is passive: a worker's event pipe
    reaching EOF while the worker owns a job means the process died
    mid-job; {!read_events} reports [`Crashed] with the orphaned
    assignment, the supervisor reaps the corpse and forks a replacement,
    and the daemon decides whether to retry the job.  The daemon itself
    never dies with a worker — that is the service's core availability
    contract.

    Forking is only safe while the daemon is single-domain; the daemon
    honours this by never touching {!Farm.Pool} itself (proof-farm
    domains live exclusively inside worker processes). *)

type worker

type t

val create : ?cache_dir:string -> jobs:int -> unit -> t
(** Fork the pool.  [cache_dir] is handed to every worker so they share
    one proof cache. *)

val size : t -> int
val restarts : t -> int
(** Workers forked beyond the initial pool (one per crash). *)

val idle_worker : t -> worker option
val pid : t -> worker -> int

val assign : t -> worker -> Protocol.assignment -> (unit, string) result
(** Send an assignment; the worker is busy until its [Verdict] arrives
    (or it crashes).  [Error] when the worker's pipe is already broken —
    the caller should [read_events] it (which will report the crash) and
    re-assign elsewhere. *)

val event_fds : t -> Unix.file_descr list
(** Every live worker's event pipe, for the daemon's [select]. *)

val worker_of_fd : t -> Unix.file_descr -> worker option

val read_events :
  t -> worker ->
  [ `Events of Protocol.event list | `Crashed of Protocol.assignment option ]
(** Drain readable events from a worker.  A [Verdict] marks the worker
    idle again.  [`Crashed] means EOF: the worker is reaped and replaced
    (bumping {!restarts}), and the orphaned assignment — [None] if it
    died idle — is returned for the retry decision. *)

val shutdown : t -> unit
(** Close assignment pipes (workers exit on EOF) and reap every child. *)
