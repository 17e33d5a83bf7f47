(** Monotonic time for proof-search deadlines and telemetry timestamps.

    [Unix.gettimeofday] can step backwards (NTP adjustment, manual clock
    change); a deadline computed against it could then never fire, or an
    elapsed time could come out negative.  [now] clamps the time source to
    be non-decreasing within the process, which is all budget enforcement
    needs: durations are never negative and deadlines always eventually
    trigger.

    The source is injectable: tests install a scripted clock so deadline
    and telemetry tests are deterministic instead of sleeping on the wall
    clock. *)

val now : unit -> float
(** Seconds, non-decreasing across calls within this process. *)

val with_source : (unit -> float) -> (unit -> 'a) -> 'a
(** [with_source f body] runs [body] with [f] installed as the source,
    restoring the previous source (and its monotone high-water mark) on
    exit, including exceptional exit. *)

val elapsed : float -> float
(** [elapsed t0] is [now () -. t0], never negative. *)

val deadline : float option -> float
(** [deadline (Some s)] is the absolute clock value [s] seconds from now;
    [deadline None] is [infinity] (no deadline). *)

val expired : float -> bool
(** [expired d] is true once [now () > d]. *)
