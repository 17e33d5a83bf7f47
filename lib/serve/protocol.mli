(** Wire protocol for the verification service.

    Everything the daemon speaks — client requests, streamed events, and
    the daemon↔worker assignment channel — is NDJSON: one
    {!Telemetry.Json} object per [\n]-terminated line, over a Unix-domain
    socket (production) or an inherited file-descriptor pair (tests,
    bench, CI smoke).  The codecs are total in both directions: encoding
    never fails, decoding returns [Error] with a reason instead of
    raising, and unknown fields are ignored so the protocol can grow. *)

(** {1 Jobs} *)

type job_spec = {
  js_id : string;          (** client-chosen; daemon assigns when [""] *)
  js_source : string;      (** MiniSpark program text *)
  js_analyze : bool;       (** flow-analysis pre-pass + static discharge *)
  js_jobs : int;           (** farm width inside the worker; [0] = auto
                               ({!Farm.Pool.default_jobs}) *)
  js_priority : int;       (** queue level, [0] urgent … [2] batch *)
  js_deadline_s : float option;  (** per-job wall-clock budget *)
  js_baseline : Echo.Verify.baseline option;
      (** inline baseline for incremental re-verification *)
  js_baseline_job : string option;
      (** or: id of a completed job whose source + verdicts to use as the
          baseline (resolved daemon-side) *)
  js_fail : string option;
      (** fault injection for tests: ["crash"] kills the worker process
          mid-job on the first attempt *)
}

val job : ?id:string -> ?analyze:bool -> ?jobs:int -> ?priority:int ->
  ?deadline_s:float -> ?baseline:Echo.Verify.baseline ->
  ?baseline_job:string -> ?fail:string -> source:string -> unit -> job_spec
(** Spec constructor with the daemon's defaults. *)

(** {1 Outcomes on the wire} *)

(** {!Echo.Verify.outcome} flattened for transport: the verdict is a
    string and a fault travels as its class name + description, so the
    client can reproduce the CLI exit code without sharing the [Fault.t]
    representation. *)
type wire_outcome = {
  w_verdict : string;      (** ["verified"] / ["conditional"] /
                               ["degraded"] / ["failed"] *)
  w_fault : (string * string) option;
      (** (class, description) when failed or degraded *)
  w_total : int;
  w_auto : int;
  w_hinted : int;
  w_residual : int;
  w_timed_out : int;
  w_discharged : int;
  w_carried : int;
  w_cache_hits : int;
  w_cache_misses : int;
  w_attempts : int;
  w_impacted_subs : int;
  w_results : Echo.Verify.vc_summary list;
  w_notes : string list;
  w_seconds : float;
}

val of_outcome : Echo.Verify.outcome -> wire_outcome

val exit_code_of_class : string -> int
(** Map a fault class name back to the CLI exit-code convention
    (parse=2, type=3, refactor=4, proof=5, analysis=6, certify=7,
    service=8, anything else 1). *)

(** {1 Requests (client → daemon)} *)

type request =
  | Submit of job_spec
  | Stats            (** ask for a {!Stats_reply} *)
  | Shutdown         (** drain and stop (same path as SIGTERM) *)

(** {1 Events (daemon → client, worker → daemon)} *)

type stage_phase =
  | P_start
  | P_ok of float          (** stage seconds *)
  | P_failed of string     (** fault description *)

type stats = {
  st_submitted : int;
  st_completed : int;
  st_dedup_hits : int;     (** verdicts replayed without queueing *)
  st_rejected : int;
  st_retries : int;        (** job re-runs after a worker crash *)
  st_worker_crashes : int;
  st_worker_restarts : int;
  st_queue_depth : int;
  st_workers : int;
  st_uptime_s : float;
}

type event =
  | Accepted of { ev_job : string; ev_depth : int }
  | Rejected of { ev_job : string; ev_reason : string }
  | Stage of {
      ev_job : string;
      ev_stage : string;       (** parse / analyze / impact / prove *)
      ev_phase : stage_phase;
      ev_attempt : int;        (** 1-based; bumps after a worker crash *)
    }
  | Verdict of {
      ev_job : string;
      ev_outcome : wire_outcome;
      ev_dedup : bool;         (** replayed from the daemon's outcome table *)
      ev_attempts : int;       (** worker attempts consumed (crashes + 1) *)
    }
  | Stats_reply of stats
  | Bye                        (** daemon is closing this connection *)

(** {1 Worker assignments (daemon → worker)} *)

type assignment = {
  as_job : job_spec;       (** baseline-job references already resolved *)
  as_attempt : int;
  as_telemetry : string option;
      (** file to which the worker dumps its job telemetry span tree *)
}

(** {1 Codecs} *)

val job_to_json : job_spec -> Telemetry.Json.t
val job_of_json : Telemetry.Json.t -> (job_spec, string) result
val outcome_to_json : wire_outcome -> Telemetry.Json.t
val outcome_of_json : Telemetry.Json.t -> (wire_outcome, string) result
val request_to_json : request -> Telemetry.Json.t
val request_of_json : Telemetry.Json.t -> (request, string) result
val event_to_json : event -> Telemetry.Json.t
val event_of_json : Telemetry.Json.t -> (event, string) result
val assignment_to_json : assignment -> Telemetry.Json.t
val assignment_of_json : Telemetry.Json.t -> (assignment, string) result

(** {1 Framing} *)

(** Incremental NDJSON line assembly over raw reads. *)
module Lines : sig
  type t
  val create : unit -> t
  val feed : t -> string -> unit
  val pop : t -> string option
  (** Next complete line (without its [\n]), if one has been fed. *)
end

val send : Unix.file_descr -> Telemetry.Json.t -> (unit, string) result
(** Write one NDJSON line, handling partial writes and [EINTR];
    [Error] on a closed/broken peer (never raises). *)

val read_chunk : Unix.file_descr -> [ `Data of string | `Eof ]
(** One [Unix.read], EINTR-retried; [`Eof] on zero bytes or a hard read
    error (a vanished peer reads as end-of-stream). *)
