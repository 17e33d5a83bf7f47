(** A bounded memo table with oldest-first eviction and hit, miss and
    eviction counters.

    Not synchronised: callers keep one table per domain (in
    [Domain.DLS]), so no two domains ever touch the same table. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create cap]: a table holding at most [cap] entries; adding to a
    full table first drops the entry added longest ago. *)

val find : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find t k compute]: the stored value for [k] (a hit), or [compute ()]
    stored under [k] (a miss).  Keys are hashed and compared
    structurally.  When [compute] raises, the exception propagates and
    nothing is stored. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** [add t k v]: store [v] under [k] unless [k] is already stored (then
    the table is unchanged), evicting as {!find} does.  Counts neither a
    hit nor a miss.  For a [compute] that knows the values of further
    keys. *)

type stats = { hits : int; misses : int; evictions : int }

val stats : ('k, 'v) t -> stats
(** Counters since the table was created. *)

val diff : stats -> stats -> stats
(** [diff later earlier]: the events between two readings. *)

val counters : string -> stats -> (string * int) list
(** [counters prefix s]: [prefix_hits], [prefix_misses] and
    [prefix_evictions] with their values, for a metrics registry. *)

val measure :
  (unit -> (string * stats) list) -> (unit -> 'a) -> 'a * (string * stats) list
(** [measure read f]: [f ()] and, per table [read] names, the events [f]
    caused ({!diff} of the readings after and before).  [read] reads the
    calling domain's tables, so a farm job measures itself and returns
    the result: its tables are out of the caller's reach. *)

val sum : (string * stats) list list -> (string * stats) list
(** Per-name totals of several {!measure} readings, names in first-seen
    order. *)
