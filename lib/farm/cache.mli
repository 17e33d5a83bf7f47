(** Persistent content-addressed proof cache.

    Maps a {e key} — the canonical digest of a VC's formula content plus
    a signature of everything else that can change its provability
    (prover config, hint ladder, program function bodies;
    the caller composes the key, see {!Echo.Implementation_proof}) — to
    the recorded proof outcome.  A re-verify after a refactoring block
    then only re-proves VCs whose formulas actually changed.

    Storage is one JSONL index file ([index.jsonl]) under the cache
    directory: a header line naming the format version, then one entry
    per line.  {!save} writes to a temp file and renames, so a crashed
    run leaves the previous index intact; {!open_} merges what is already
    on disk (how a [--resume] run inherits the interrupted run's proofs)
    and tolerates unreadable or foreign lines by skipping them — a
    corrupt cache can cost hits, never correctness.

    Timed-out outcomes are deliberately {e not} representable: a timeout
    depends on the wall clock, not the VC, so replaying it from a cache
    would make verdicts machine-dependent. *)

type entry_status =
  | E_auto                 (** discharged at capability level 0 *)
  | E_hinted of int        (** discharged after this many hints *)
  | E_residual of string   (** not dischargeable; residual goal *)

type entry = {
  en_status : entry_status;
  en_attempts : int;  (** capability levels searched when first proved *)
  en_time : float;    (** prover seconds spent when first proved *)
}

type t

val open_ : dir:string -> t
(** Load (or start) the cache rooted at [dir].  The directory is created
    on {!save}, not here; a missing or unreadable index yields an empty
    cache. *)

val dir : t -> string
val size : t -> int
val lookup : t -> string -> entry option

val refresh : t -> int
(** Merge entries that other processes have saved to the on-disk index
    since {!open_} (or the previous refresh) into memory; in-memory
    entries win on conflict.  Returns the number of entries gained.  This
    is how the serve daemon's proof-worker processes, which share one
    cache directory, see each other's proofs between jobs.

    The handle remembers the index's (inode, size, mtime) as it last
    read or wrote it, taken by [fstat] on the channel it used.  While the
    index still carries that stamp, [refresh] reads nothing and returns
    0: every entry on disk is already in memory.  Writers replace the
    index by rename, so any save by a sibling changes the inode; a
    rename that races a read can only cost an extra reload later. *)

val add : t -> string -> entry -> unit
(** Record an outcome under a key (replacing any previous entry).  Not
    thread-safe: the farm coordinator is the only writer. *)

val save : t -> (unit, string) result
(** Atomically persist the index (temp file + rename), always: callers
    decide when a save is worth its cost (the implementation proof saves
    only after adding an entry).  Entries another process saved since
    this handle last read or wrote the index are merged in first, under
    the same stamp check as {!refresh}; afterwards the handle's stamp is
    the file it wrote. *)

val format_version : string
