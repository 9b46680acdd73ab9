"""Constant folding: evaluate scalar ``calc.*`` calls on literals.

Front-ends emit scalar expressions (``calc.+``, ``calc.<`` ...) for the
constant parts of predicates; folding them at optimization time removes
them from the interpreted critical path.  A constant folded from a
statement literal is tagged ``DERIVED``: the plan now depends on that
literal's value.
"""

from repro.core.kernel import KERNEL
from repro.mal.ast import DERIVED, Const, MALInstruction, MALProgram
from repro.mal.optimizer.base import is_pure, optimizer


def _fold_value(instr):
    fn = KERNEL[instr.op]
    value = fn(*[a.value for a in instr.args])
    if any(a.slot is not None for a in instr.args):
        return Const(value, DERIVED)
    return Const(value)


@optimizer("constant_folding")
def constant_folding(program):
    folded = {}  # var name -> Const
    kept = []
    for instr in program.instructions:
        # Substitute previously folded variables into the arguments.
        args = tuple(folded.get(a.name, a) if not isinstance(a, Const) else a
                     for a in instr.args)
        instr = MALInstruction(instr.results, instr.op, args, instr.recycle)
        can_fold = (instr.op.startswith("calc.")
                    and instr.op in KERNEL
                    and is_pure(instr.op)
                    and len(instr.results) == 1
                    and all(isinstance(a, Const) for a in instr.args))
        if can_fold:
            folded[instr.results[0]] = _fold_value(instr)
        else:
            kept.append(instr)
    # Returned variables must stay materialized: re-emit a folded constant
    # through an identity instruction if it is returned.
    for name in program.returns:
        if name in folded:
            kept.append(MALInstruction((name,), "language.pass",
                                       (folded[name],)))
    return MALProgram(kept, program.returns, program.name)
