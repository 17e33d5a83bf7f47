(** Semantic diff between two versions of a MiniSpark program (§15).

    Subprograms are compared by digests of their canonical pretty-printed
    form, so formatting, comments and source spans never register as
    changes — only the abstract syntax does.  Two digests are kept per
    subprogram: one over the interface (name, parameters, return type,
    pre/postcondition) and one over the implementation (locals and body),
    so the differ can distinguish a body-only edit — whose effect is
    confined to the subprogram's own VCs and to provers that evaluate its
    body — from a signature-or-spec change, which {!Impact} escalates to
    every caller. *)

open Minispark

type change =
  | Unchanged
  | Body_changed
  | Sig_or_spec_changed   (** interface digest differs (body may too) *)
  | Added
  | Removed

val change_name : change -> string

type t = {
  sd_subs : (Ast.ident * change) list;
      (** every subprogram of either version, in old-then-new declaration
          order *)
  sd_decls : Ast.ident list;
      (** program-level declarations (types, constants, globals) whose
          definition changed, was added or was removed *)
}

val sig_digest : Ast.subprogram -> string
(** Digest of the interface: name, parameters, return type and
    contract. *)

val body_digest : Ast.subprogram -> string
(** Digest of the implementation: local declarations and body. *)

val diff : old_p:Ast.program -> new_p:Ast.program -> t

val changed_subs : t -> Ast.ident list
(** Names with any change other than [Unchanged], sorted. *)

val sig_changed_subs : t -> Ast.ident list
(** Names classified [Sig_or_spec_changed], [Added] or [Removed] —
    the changes that escalate to callers.  Sorted. *)

val is_empty : t -> bool

val pp : t Fmt.t
val to_json : t -> string
