(** The implication proof (§6.2.4): the extracted specification implies the
    original specification, organised as lemmas over the matched
    architecture (§4.1).

    Discharge methods, strongest first: exhaustive finite-domain evaluation
    (a decision for the byte-level algebra), deterministic sampling plus
    known-answer vectors for block-level elements, and structural
    congruence over already-proved lemmas. *)

type method_ =
  | Exhaustive of int   (** points checked — a finite-domain decision *)
  | Sampled of int      (** deterministic random trials *)
  | Structural

type outcome =
  | Holds of method_
  | Fails of string

type lemma = {
  lm_name : string;
  lm_original : string;    (** element of the original specification *)
  lm_extracted : string;   (** element of the extracted specification *)
  lm_run : unit -> outcome;
}

val exhaustive :
  name:string -> original:string -> extracted:string ->
  domain:Specl.Seval.value list list ->
  lhs:(Specl.Seval.value list -> Specl.Seval.value) ->
  rhs:(Specl.Seval.value list -> Specl.Seval.value) -> unit -> lemma

val sampled :
  name:string -> original:string -> extracted:string ->
  gen:((unit -> int) -> Specl.Seval.value list) -> count:int ->
  lhs:(Specl.Seval.value list -> Specl.Seval.value) ->
  rhs:(Specl.Seval.value list -> Specl.Seval.value) -> unit -> lemma

val structural :
  name:string -> original:string -> extracted:string ->
  premises:string list -> check:(unit -> bool) -> unit -> lemma

type result = {
  im_lemmas : (lemma * outcome) list;
  im_total : int;
  im_proved : int;
  im_time : float;
}

val empty : result
(** Degenerate result for pipeline stages that never ran. *)

val run : ?jobs:int -> lemma list -> result
(** Evaluate every lemma, each as one {!Farm.Pool} job at width [jobs]
    (default 1: inline, in list order); outcomes come back in list
    order whatever the width.  Lemmas must not depend on each other's
    side effects.  A lemma body that raises is recorded as [Fails] —
    one blown lemma never aborts the suite.  With telemetry on, the
    lemmas' use of {!Specl.Seval}'s application memo, summed over the
    domains they ran on, is published as the [spec_memo_hits] /
    [_misses] / [_evictions] counters. *)

val pp_method : method_ Fmt.t
val pp_result : result Fmt.t
