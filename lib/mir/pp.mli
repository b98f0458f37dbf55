(** Printing of MIRlight programs in a rustc-like rendering.

    This is the output format of the [mirlightgen] CLI (paper Sec. 3.3):
    the same AST the interpreter executes, printed one statement per
    line so it can be diffed against rustc's [--emit mir] output.

    The text of a body is also what its proof-cache fingerprints digest
    ([Hyperenclave.Layers.body_digest]), so it must not change by a
    byte unless the body does. *)

val body_to_string : Syntax.body -> string
(** [fn name(params) {], the locals at indent 2, then each block as
    [bbN: {] with its statements and terminator at indent 4. *)

val program_to_string : Syntax.program -> string
(** Every body in {!Syntax.fold_bodies} order, each ending in a
    newline, separated by an empty line. *)
