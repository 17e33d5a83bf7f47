(** Client side of the verification service.

    Wraps the NDJSON protocol over either a Unix-domain socket
    ({!connect}, production) or a pre-connected descriptor pair.
    {!with_daemon} forks a private daemon over a socketpair
    — the harness used by the test suite, the bench and the CI smoke to
    exercise the full daemon/worker/protocol stack without touching the
    filesystem for a socket. *)

type t

val connect : path:string -> (t, string) result
val close : t -> unit

val request : t -> Protocol.request -> (unit, string) result

val next_event : ?timeout_s:float -> t -> (Protocol.event, string) result
(** Block (up to [timeout_s], default 60) for the next daemon event.
    [Error] on timeout or a closed daemon. *)

val run_job :
  ?on_event:(Protocol.event -> unit) ->
  t -> Protocol.job_spec ->
  (Protocol.wire_outcome * bool * int, string) result
(** Submit and wait for this job's terminal event, feeding every
    intermediate event (including other jobs') to [on_event].  Returns
    [(outcome, dedup, attempts)] on a verdict; [Error reason] on a
    rejection. *)

val stats : t -> (Protocol.stats, string) result

val with_daemon :
  ?config:Daemon.config -> (t -> 'a) -> 'a
(** Fork a daemon child serving one socketpair and run [f] against it;
    always shuts the daemon down (shutdown request, then SIGKILL as a
    last resort) and reaps the child.  SIGPIPE is ignored for the
    duration. *)

val daemon_pid : t -> int option
(** The forked daemon's pid under {!with_daemon} ([None] otherwise). *)
