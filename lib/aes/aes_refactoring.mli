(** The verification refactoring of the optimized AES (§6.2.1/§6.2.2):
    fourteen blocks of transformations, each mechanically checked, with
    FIPS-197 validation after every block and, under certification, a
    certificate per step. *)

type block = {
  b_index : int;
  b_title : string;
  b_run : Refactor.History.t -> unit;
}

val blocks : block list

type snapshot = {
  sn_block : int;       (** 0 = the original optimized program *)
  sn_title : string;
  sn_env : Minispark.Typecheck.env;
  sn_program : Minispark.Ast.program;
}

val run :
  ?upto:int -> ?kat_gate:bool -> ?certify:Refactor.Certify.config ->
  ?start:Minispark.Typecheck.env * Minispark.Ast.program ->
  unit -> snapshot list * Refactor.History.t
(** Run the refactoring through block [upto] (default 14).  [kat_gate]
    (default true) validates the FIPS vectors after every block; disable
    for the seeded-defect experiment, where the vectors are not part of
    the Echo process.  With [certify], every step is certified
    ({!Refactor.Certify}) and its certificate recorded in the history:
    each step goes to the certification as it is applied
    ({!Refactor.History.run_certified}), so up to [cf_jobs - 1] domains
    certify beside the blocks and the rest is certified once the last
    block is done.  A failing block first finishes certifying the steps
    before it, so a refutation among them is what is raised.
    A config with no [cf_entries] certifies with the public entry points
    [encrypt_block] and [decrypt_block].
    [start] overrides the initial program.
    @raise Refactor.Transform.Not_applicable when a transformation's
    mechanical applicability check rejects (how defects are caught at this
    stage).
    @raise Refactor.Certify.Refutation when certification finds a
    counterexample; the history then ends at the refuted step's
    pre-image. *)
