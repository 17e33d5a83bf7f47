(** The seeded-defect experiment (§7.2/§7.3, Tables 2 and 3), plus an
    extension variant over the refactored program that isolates the
    annotation-placement contrast between the two setups.  Every case is
    an {!Echo.Orchestrator.run} of the AES case study. *)

type stage =
  | Caught_refactoring
  | Caught_implementation
  | Caught_implication
  | Not_caught

val stage_name : stage -> string

type setup =
  | Setup1  (** annotations match the code: functional posts withheld, so
                only exception freedom catches faults at the
                implementation proof *)
  | Setup2  (** annotations match the specification (the standard set) *)

type run_result = {
  rr_defect : Seed.defect;
  rr_stage : stage;
  rr_note : string;
}

type baselines

val baselines : ?max_steps:int -> unit -> baselines
(** Clean-run residual profiles under both annotation regimes: the
    orchestrated run of the unseeded program. *)

val run_one :
  ?max_steps:int -> baselines:baselines -> setup -> Seed.defect -> run_result
(** The full Echo process on one defective program: refactoring,
    implementation proof (vs the clean baseline), implication proof. *)

type table = {
  tb_setup : setup;
  tb_results : run_result list;
  tb_refactoring : int;
  tb_implementation : int;
  tb_implication : int;
  tb_left : int;
}

val run_experiment : ?max_steps:int -> ?seed:int -> unit -> table * table
(** Tables 2 and 3: the fifteen defects through both setups. *)

val run_post_experiment : ?max_steps:int -> ?seed:int -> unit -> table * table
(** Extension: defects seeded into the *final refactored* program, proofs
    only — exposes the setup contrast that our strong refactoring checks
    otherwise pre-empt (see EXPERIMENTS.md). *)

val pp_table : table Fmt.t
