"""Common-subexpression elimination.

The operator-at-a-time paradigm materializes every intermediate, so two
textually identical instructions compute the same BAT twice; CSE keeps
the first and renames away the second.  This is the *static* half of the
double-work avoidance story — the recycler (Section 6.1) is the dynamic,
cross-query half.

Instructions match on constant *values*.  When a merge joins constants
tied to different statement literals (or a literal and a compiler
constant), the kept constants are tagged ``DERIVED``: the merge holds
only while those values stay equal.
"""

from repro.mal.ast import DERIVED, Const, MALInstruction, MALProgram, Var
from repro.mal.optimizer.base import is_pure, optimizer


def _merged(kept, duplicate):
    """``kept`` with every constant whose slot differs from the
    duplicate's at the same position tagged ``DERIVED``."""
    differ = [isinstance(a, Const) and a.slot != b.slot
              for a, b in zip(kept.args, duplicate.args)]
    if not any(differ):
        return kept
    args = tuple(Const(a.value, DERIVED) if d else a
                 for a, d in zip(kept.args, differ))
    return MALInstruction(kept.results, kept.op, args, kept.recycle)


@optimizer("common_subexpression_elimination")
def common_subexpression_elimination(program):
    seen = {}     # signature -> index in kept of the first occurrence
    aliases = {}  # duplicate var name -> canonical var name
    kept = []
    for instr in program.instructions:
        args = tuple(Var(aliases.get(a.name, a.name))
                     if isinstance(a, Var) else a for a in instr.args)
        instr = MALInstruction(instr.results, instr.op, args, instr.recycle)
        if not is_pure(instr.op):
            kept.append(instr)
            continue
        sig = instr.signature()
        prior = seen.get(sig)
        if prior is not None and \
                len(kept[prior].results) == len(instr.results):
            for dup, canonical in zip(instr.results, kept[prior].results):
                aliases[dup] = canonical
            kept[prior] = _merged(kept[prior], instr)
            continue
        seen[sig] = len(kept)
        kept.append(instr)
    returns = tuple(aliases.get(name, name) for name in program.returns)
    return MALProgram(kept, returns, program.name)
