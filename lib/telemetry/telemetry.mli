(** Structured tracing and metrics for the Echo pipeline.

    A zero-dependency (stdlib, {!Logic.Clock} and {!Memo.stats})
    observability substrate:

    - {b spans}: a tree of timed intervals — one per pipeline stage, per
      refactoring transformation, per VC and per prover attempt — with
      key/value attributes, recorded against the monotonic clock;
    - {b metrics}: named counters, gauges and fixed-bucket histograms
      with a snapshot API;
    - {b exporters}: JSONL event logs (append-merge friendly), Chrome
      [trace_event] JSON (loads in [chrome://tracing] / Perfetto), and a
      plain-text summary report (per-stage breakdown, top-N slowest VCs,
      retry hot spots, match-ratio evolution).

    Collection is {b disabled by default}: every instrumentation entry
    point first reads one [bool ref], so uninstrumented runs pay no
    measurable cost.  The collector is process-global and {b domain-safe}:
    the finished-event list and metrics tables are mutex-protected, span
    ids come from an atomic counter, and each domain keeps its own
    open-span stack — a proof-farm worker's spans nest under that
    worker's own ancestry, and {!finish_span} can never unwind another
    domain's spans.  Cross-domain nesting is explicit: a spawning site
    passes {!current_span} as [?parent] for the worker's root span. *)

(** Minimal JSON tree, printer and parser — enough for the exporters and
    for reading event logs back in [echo_cli report], without adding a
    JSON dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering; strings are escaped, floats keep microsecond
      precision.  The output is byte-stable: the same value always
      renders to the same bytes, so encodings can be digested, cached
      and compared byte for byte (the serve protocol, the proof-cache
      index and the telemetry JSONL all rely on it). *)

  val of_string : string -> (t, string) result
  (** Parse one JSON value (surrounding whitespace allowed).  [Error]
      names what was expected and the byte offset where decoding
      stopped. *)

  val member : string -> t -> t option
end

(** Attribute values attached to spans and events. *)
type value = S of string | I of int | F of float | B of bool

type attrs = (string * value) list

(** A finished telemetry event.  Times are {!Logic.Clock} seconds. *)
type event =
  | Span of {
      sp_id : int;
      sp_parent : int;  (** 0 = root *)
      sp_name : string;
      sp_cat : string;
      sp_start : float;
      sp_dur : float;
      sp_attrs : attrs;
    }
  | Instant of {
      ev_name : string;
      ev_cat : string;
      ev_time : float;
      ev_attrs : attrs;
    }

(** {1 Conventional categories}

    Instrumentation sites and the summary renderer agree on these span
    categories; anything else is shown generically. *)

(** one whole orchestrated run *)
val cat_pipeline : string

(** one pipeline stage *)
val cat_stage : string

(** one refactoring transformation *)
val cat_transform : string

(** one VC through the prover's capability ladder; its [attempts]
    attribute is the number of levels searched *)
val cat_vc : string

(** one implication lemma *)
val cat_lemma : string

(** one proof-farm worker domain *)
val cat_worker : string

(** {1 Collection control} *)

val enabled : unit -> bool

val enable : unit -> unit
(** Reset the collector and start recording. *)

val disable : unit -> unit
(** Stop recording; already-collected events and metrics survive until
    {!reset} or the next {!enable}. *)

val reset : unit -> unit

(** {1 Spans and instants}

    All no-ops when collection is disabled. *)

val start_span :
  ?cat:string -> ?attrs:attrs -> ?parent:int -> ?detached:bool -> string -> int
(** Open a span nested under the innermost open span of the calling
    domain — or under [?parent] when given (how a worker's root span
    nests under the coordinator's dispatch span); returns its id (0 when
    disabled).  A [detached] span (default [false]) is not pushed on the
    calling domain's stack, so the spans the caller opens next are not
    nested in it: it frames work that runs beside the caller (the
    certification of a script, whose workers name it as [?parent]), and
    any domain may finish it.  [Gc.quick_stat] minor/major words are sampled at open and
    again at close, and every finished span carries the deltas as
    ["gc_minor_w"] / ["gc_major_w"] float attributes — sampled only when
    collection is enabled, so disabled runs stay zero-cost. *)

val finish_span : ?attrs:attrs -> int -> unit
(** Close the span with the given id, merging [attrs] into it.  Any
    still-open spans nested inside it {e on the calling domain} are
    closed too (defensive: an escaping exception must not corrupt the
    tree).  Unknown, other-domain or 0 ids are ignored; a detached span
    is closed from any domain. *)

val current_span : unit -> int
(** Id of the calling domain's innermost open span (0 when none) — pass
    it as [?parent] when spawning work onto another domain. *)

val with_span :
  ?cat:string -> ?attrs:attrs -> ?parent:int -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; the span is finished even when the thunk
    raises (the exception is re-raised, and the span gains an
    ["error"] attribute). *)

val annotate : attrs -> unit
(** Merge attributes into the innermost open span; no-op without one. *)

val instant : ?cat:string -> ?attrs:attrs -> string -> unit
(** Record a point event. *)

val events : unit -> event list
(** Finished events in chronological (start-time) order. *)

val ingest : event list -> unit
(** Preload previously exported events into the collector — how a resumed
    run merges the trace of the run it continues.  Span ids are kept;
    fresh ids are allocated above the maximum ingested id. *)

(** {1 Metrics registry} *)

val count : ?by:int -> string -> unit

val count_memos : (string * Memo.stats) list -> unit
(** Add each memo reading ({!Memo.measure}) to the [<name>_hits],
    [<name>_misses] and [<name>_evictions] counters. *)

val gauge : string -> float -> unit

val default_buckets : float array
(** Wall-clock seconds ladder: 1ms .. 60s. *)

val stage_buckets : float array
(** Coarser ladder (100ms .. 300s) for whole-stage durations, which crowd
    the top of {!default_buckets}. *)

val observe : ?buckets:float array -> string -> float -> unit
(** Record into a fixed-bucket histogram (created on first observation;
    [buckets] are inclusive upper bounds, an overflow bucket is
    implicit).  Later [buckets] arguments for the same name are
    ignored. *)

(** Domain-local batched metric updates for hot paths.  [count] and
    [observe] accumulate without touching the collector mutex; [flush]
    merges everything recorded on this domain in one locked section.
    Merged results are identical to the unbatched calls.  Call [flush]
    before the domain's work ends (e.g. at worker-span close) — unflushed
    batches are simply never merged. *)
module Batch : sig
  val count : ?by:int -> string -> unit
  val observe : ?buckets:float array -> string -> float -> unit
  val flush : unit -> unit
end

type histogram = {
  hs_buckets : float array;  (** inclusive upper bounds, increasing *)
  hs_counts : int array;     (** length = buckets + 1 (overflow last) *)
  hs_count : int;
  hs_sum : float;
  hs_min : float;            (** [nan] when empty *)
  hs_max : float;
}

type snapshot = {
  sn_counters : (string * int) list;        (** sorted by name *)
  sn_gauges : (string * float) list;
  sn_histograms : (string * histogram) list;
}

val snapshot : unit -> snapshot

(** {1 Exporters} *)

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result

val write_jsonl : path:string -> event list -> (unit, string) result
(** One JSON object per line. *)

val read_jsonl : path:string -> (event list, string) result

val chrome_trace : event list -> Json.t
(** The Chrome [trace_event] format: an object with a ["traceEvents"]
    array of complete ("ph":"X") and instant ("ph":"i") events,
    timestamps in microseconds relative to the earliest event.  Open with
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)

val write_chrome_trace : path:string -> event list -> (unit, string) result

val snapshot_to_json : snapshot -> Json.t
val snapshot_of_json : Json.t -> (snapshot, string) result
val write_metrics : path:string -> snapshot -> (unit, string) result
val read_metrics : path:string -> (snapshot, string) result

(** {1 Summary report} *)

module Summary : sig
  val render :
    ?top:int -> events:event list -> metrics:snapshot option -> unit -> string
  (** Plain-text run report: per-stage time breakdown, top-N slowest VCs,
      retry hot spots (VCs whose capability ladder went past level 0),
      proof-farm worker/steal/cache-hit summary (when farm counters or
      worker spans are present), refactoring-transformation totals,
      spec-match-ratio evolution, and the metrics snapshot.  [top] bounds
      the "slowest" lists (default 5). *)
end
