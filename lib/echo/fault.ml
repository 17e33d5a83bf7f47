(* Structured fault taxonomy: the single vocabulary for "what went wrong"
   across parsing, refactoring, VC generation, proof search and the
   implication lemmas, so orchestration policy (retry / degrade / abort)
   can dispatch on fault class instead of exception identity. *)

open Minispark

type t =
  | Parse of { msg : string; line : int; col : int }
  | Type of string
  | Refactor of string
  | Vc_infeasible of string
  | Prover_timeout of { vc : string; elapsed : float }
  | Prover_stuck of { vc : string; reason : string }
  | Lemma of { lemma : string; reason : string }
  | Deadline of { stage : string; budget : float }
  | Checkpoint of string
  | Injected of string
  | Crash of string
  | Analysis of { errors : int; first : string }
  | Certification of { cert_step : string; cert_reason : string }
  | Service of { srv_op : string; srv_reason : string }

exception Fault of t

let of_exn = function
  | Fault f -> f
  | Parser.Error (msg, line, col) -> Parse { msg; line; col }
  | Typecheck.Type_error msg -> Type msg
  | Refactor.Transform.Not_applicable msg -> Refactor msg
  | Refactor.Certify.Refutation { rf_step; rf_cx } ->
      Certification
        { cert_step = rf_step;
          cert_reason = Refactor.Certify.counterexample_to_string rf_cx }
  | Vcgen.Infeasible msg -> Vc_infeasible msg
  | Specl.Seval.Error msg -> Lemma { lemma = "<evaluation>"; reason = msg }
  | Extract.Unextractable msg -> Lemma { lemma = "<extraction>"; reason = msg }
  | Stack_overflow -> Crash "stack overflow"
  | Out_of_memory -> Crash "out of memory"
  | e -> Crash (Printexc.to_string e)

let guard f =
  match f () with
  | v -> Ok v
  | exception Sys.Break -> raise Sys.Break
  | exception e -> Error (of_exn e)

let class_name = function
  | Parse _ -> "parse"
  | Type _ -> "type"
  | Refactor _ -> "refactor"
  | Vc_infeasible _ -> "vc-infeasible"
  | Prover_timeout _ -> "prover-timeout"
  | Prover_stuck _ -> "prover-stuck"
  | Lemma _ -> "lemma"
  | Deadline _ -> "deadline"
  | Checkpoint _ -> "checkpoint"
  | Injected _ -> "injected"
  | Crash _ -> "crash"
  | Analysis _ -> "analysis"
  | Certification _ -> "certify"
  | Service _ -> "service"

let describe = function
  | Parse { msg; line; col } -> Printf.sprintf "parse error at %d:%d: %s" line col msg
  | Type msg -> "type error: " ^ msg
  | Refactor msg -> "transformation not applicable: " ^ msg
  | Vc_infeasible msg -> "VC generation infeasible: " ^ msg
  | Prover_timeout { vc; elapsed } ->
      Printf.sprintf "prover timeout on %s after %.3fs" vc elapsed
  | Prover_stuck { vc; reason } -> Printf.sprintf "prover stuck on %s: %s" vc reason
  | Lemma { lemma; reason } -> Printf.sprintf "lemma %s failed to evaluate: %s" lemma reason
  | Deadline { stage; budget } ->
      Printf.sprintf "global deadline (%.1fs) exceeded during %s" budget stage
  | Checkpoint msg -> "checkpoint error: " ^ msg
  | Injected msg -> "injected fault: " ^ msg
  | Crash msg -> "crash: " ^ msg
  | Analysis { errors; first } ->
      Printf.sprintf "flow analysis found %d error(s), first: %s" errors first
  | Certification { cert_step; cert_reason } ->
      Printf.sprintf "certification refuted step %s: %s" cert_step cert_reason
  | Service { srv_op; srv_reason } ->
      Printf.sprintf "service error in %s: %s" srv_op srv_reason

(* Exit codes are part of the CLI contract (echo_cli --help documents
   them): 2..5 for the four user-meaningful classes, 1 for everything the
   user cannot act on from the invocation alone. *)
let exit_code = function
  | Parse _ -> 2
  | Type _ -> 3
  | Refactor _ -> 4
  | Vc_infeasible _ | Prover_timeout _ | Prover_stuck _ | Lemma _ | Deadline _ -> 5
  | Analysis _ -> 6
  | Certification _ -> 7
  | Service _ -> 8
  | Checkpoint _ | Injected _ | Crash _ -> 1

let is_transient = function
  | Prover_timeout _ | Prover_stuck _ | Deadline _ -> true
  | Parse _ | Type _ | Refactor _ | Vc_infeasible _ | Lemma _ | Checkpoint _
  | Injected _ | Crash _ | Analysis _ | Certification _ | Service _ -> false

let pp ppf f = Fmt.pf ppf "[%s] %s" (class_name f) (describe f)
