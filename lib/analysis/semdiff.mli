(** Semantic diff between two versions of a MiniSpark program (§15, §25).

    Both sides are read as {!outline}s: per declaration, in program
    order, its name, kind and content digest ({!Share.decl_digest}), and
    for a subprogram an interface digest over its name, parameters,
    return type and pre/postcondition ({!Share.interface_digest}).  A
    subprogram whose content digest is unchanged is [Unchanged]; one
    whose interface digest moved is [Sig_or_spec_changed], which
    {!Impact} escalates to every caller; any other change is a
    body-only edit, confined to the subprogram's own VCs and to provers
    that evaluate its body.  A baseline therefore needs no source text:
    its outline is all the diff reads of it. *)

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

(** {1 Outlines} *)

type kind = K_type | K_const | K_var | K_sub

val kind_name : kind -> string
(** ["type"], ["const"], ["var"] or ["sub"]. *)

val kind_of_name : string -> kind option

type entry = {
  ol_name : Ast.ident;
  ol_kind : kind;
  ol_digest : string;  (** {!Share.decl_digest} of the declaration *)
  ol_iface : string;   (** {!Share.interface_digest} of a subprogram;
                           [""] for any other kind *)
}

type outline = entry list
(** One entry per declaration, in program order. *)

val outline : Ast.program -> outline
(** Built from the memoized declaration digests, so a program whose VCs
    were generated (or whose proof-cache keys were taken) pays only the
    subprograms' interface digests. *)

val diff : old_o:outline -> new_o:outline -> t
(** Classify every subprogram and program-level declaration.  Lookups by
    name take the first declaration of that name in program order (for a
    program-level name: its type, else its constant, else its global).
    The outlines should be of the normal forms {!Typecheck.check}
    returns: on those, equal content digests agree with equal trees and
    with equal printed forms, and where they could disagree a
    subprogram is only classed as changed — re-proved, never wrongly
    carried. *)

val changed_subs : t -> Ast.ident list
(** Names with any change other than [Unchanged], sorted. *)

val sig_changed_subs : t -> Ast.ident list
(** Names classified [Sig_or_spec_changed], [Added] or [Removed] —
    the changes that escalate to callers.  Sorted. *)

val is_empty : t -> bool

val pp : t Fmt.t
val to_json : t -> string
