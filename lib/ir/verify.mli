(** IR invariant verifier — the correctness oracle run between
    optimizer steps (behind [Config.verify]).

    Four invariant classes are checked:

    - {b cfg}: block ids match positions, terminator targets are in
      range, the entry block exists (pred/succ symmetry is structural
      once targets are in range);
    - {b check-form}: every [Check]/[Cond_check] carries a canonical
      linear form over atoms that resolve to live variables, with an
      in-range source dimension and an effect-free guard;
    - {b loop-structure}: recorded preheaders still enter and dominate
      their headers, latches still close their loops;
    - {b insertion}: differential rules keyed by the pass that just
      ran — most importantly, a check inserted by code motion must be
      anticipatable at its insertion point (the paper's safety rule,
      DESIGN.md section 5.4), so no inserted check sits above a
      definition of one of its symbols.

    Differential checking relies on passes preserving the physical
    identity of instructions they do not touch (they all rebuild
    [instrs] lists with [List.filter]/[List.map]-style traversals). *)

type pass =
  | Lowered  (** structural rules only; no differential check *)
  | Rewrite  (** INX induction rewriting: check count preserved *)
  | Strengthen  (** in-place same-family strengthening *)
  | Code_motion  (** PRE insertion: inserted checks must be anticipatable *)
  | Hoist  (** preheader insertion: only checks/guards, only in preheaders *)
  | Elimination  (** redundancy elimination: deletions only *)
  | Fold  (** compile-time folding: deletions, traps, guard folding *)

val pass_name : pass -> string

type rule = Cfg | Check_form | Loop_structure | Insertion

val rule_name : rule -> string

type violation = { rule : rule; where : string; what : string }

val pp_violation : violation Fmt.t

exception Invalid_ir of string
(** Raised by {!func_exn} with a formatted report. *)

val func : ?pass:pass -> ?before:Func.t -> Func.t -> violation list
(** [func ~pass ~before f] checks the structural invariants of [f] and,
    when [before] (a {!Transform.copy_func} snapshot taken before the
    pass ran) is given, the differential rules for [pass]. Returns all
    violations found; [[]] means the IR is well-formed. *)

val func_exn : ?pass:pass -> ?before:Func.t -> Func.t -> unit
(** Like {!func} but raises {!Invalid_ir} on the first report. *)

val diff : before:Func.t -> Func.t -> (int * Types.instr) list * Types.instr list
(** [diff ~before f] is [(inserted, removed)], by physical identity
    ([==]): [inserted] pairs each instruction of [f] found nowhere in
    [before] with its block id, in block then instruction order;
    [removed] lists the instructions of [before] found nowhere in [f],
    in reverse block then instruction order. An instruction moved
    between blocks is neither. The differential rules read the pass's
    changes from it. *)

val program : ?pass:pass -> Program.t -> violation list
(** Structural verification of every function, violations prefixed with
    the function name. *)
