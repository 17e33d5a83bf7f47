(** Bounded multi-level job queue for the serve daemon.

    A fixed number of priority levels (level 0 is most urgent), each a
    FIFO; {!pop} always serves the lowest non-empty level, so ordering is
    strict priority between levels and submission order within one.  The
    capacity bound covers {e all} levels together: a full queue refuses
    the push ([`Full]) so the daemon can reject the submission with
    backpressure instead of growing without bound.

    Single-threaded by design — the daemon's event loop is the only
    caller — so there is no locking and the operations are O(1). *)

type 'a t

val create : ?levels:int -> capacity:int -> unit -> 'a t
(** [levels] defaults to 3 (urgent / normal / batch).  Raises
    [Invalid_argument] when [levels < 1] or [capacity < 1]. *)

val push : 'a t -> prio:int -> 'a -> [ `Ok of int | `Full ]
(** Enqueue at [prio] (clamped to the level range); [`Ok depth] is the
    total queue depth after the push. *)

val pop : 'a t -> 'a option
(** Dequeue from the most urgent non-empty level. *)

val length : 'a t -> int
val capacity : 'a t -> int

val drain : 'a t -> 'a list
(** Remove and return everything, in {!pop} order (used by the SIGTERM
    checkpoint). *)
