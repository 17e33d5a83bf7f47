(** Post-hoc profiling and attribution over finished {!Telemetry} events.

    Pure analysis — no collector state, no clock reads — over events read
    back from a run directory ([echo_cli profile]) or taken live from the
    collector before it is disabled.

    Span lists are treated as a forest on [sp_parent]; spans whose parent
    is absent from the list (e.g. after a {!focus} slice) become roots.
    Self time is [dur − union(child intervals ∩ own interval)], so
    concurrently-running children (farm workers) never drive a parent's
    self time negative. *)

(** {1 Cost centers} *)

type cost_center = {
  cc_path : string list;   (** root-to-node span names *)
  cc_cat : string;
  cc_count : int;          (** spans aggregated under this path *)
  cc_total : float;        (** inclusive seconds *)
  cc_self : float;         (** exclusive seconds *)
  cc_gc_minor_w : float;   (** summed per-span [gc_minor_w] deltas *)
  cc_gc_major_w : float;
}

val cost_centers : Telemetry.event list -> cost_center list
(** Aggregate spans by their root-to-node name path, sorted by self time
    (descending; ties by total, then path). *)

(** {1 Critical path} *)

type critical_path = {
  cp_frames : (string * float) list;
      (** the chain, root first, with each span's self-time contribution *)
  cp_seconds : float;       (** length of the critical path *)
  cp_total_work : float;    (** Σ self time over all spans *)
  cp_workers : int;         (** max concurrent [cat_worker] siblings, ≥ 1 *)
  cp_efficiency : float;    (** total work ÷ (critical path × workers) *)
}

val critical_path : Telemetry.event list -> critical_path
(** Longest dependency chain through the span forest.  Sibling spans are
    grouped into maximal time-overlapping clusters: sequential clusters
    add, and within a cluster (concurrent spans, e.g. farm workers) only
    the longest chain counts.  Deterministic: ties prefer the
    earliest-starting (then lowest-id) chain. *)

(** {1 Per-worker utilisation} *)

type worker_stat = {
  w_name : string;
  w_wall : float;    (** worker-span duration *)
  w_busy : float;    (** seconds applying jobs ([busy_s] attr) *)
  w_idle : float;    (** wall − busy ([idle_s] attr) *)
  w_steal : float;   (** seconds in the steal path ([steal_s] attr) *)
  w_jobs : int;
  w_steals : int;
}

val worker_stats : Telemetry.event list -> worker_stat list
(** One entry per [cat_worker] span, in start order. *)

(** {1 Folded stacks} *)

val folded_stacks : Telemetry.event list -> string
(** Brendan-Gregg collapse format — one ["frame;frame;frame count"] line
    per distinct stack, counts in integer microseconds of self time,
    lines sorted lexicographically (loadable in speedscope and
    flamegraph.pl).  Frame names have [';'] and [' '] replaced. *)

val write_folded : path:string -> Telemetry.event list -> (unit, string) result

(** {1 Slicing and refactor attribution} *)

val focus :
  keep:(cat:string -> name:string -> bool) ->
  Telemetry.event list ->
  Telemetry.event list
(** Keep the subtrees rooted at spans matching [keep] (instants are
    dropped).  Kept roots whose parents were sliced away become forest
    roots in subsequent analyses. *)

val refactor_categories : Telemetry.event list -> (string * int * float) list
(** [(category, steps, seconds)] per transformation category, seconds
    descending.  Counts only the per-step [History.apply] spans
    ([cat_transform] with both ["category"] and ["outcome"] attributes);
    nested rewrite/retypecheck/certify spans are inside those and would
    double-book. *)
