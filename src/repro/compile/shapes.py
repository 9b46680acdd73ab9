"""Plan-shape normalization: the kernel identity.

Two MAL programs have the same *shape* when they run the same operator
sequence over the same dataflow with the same catalog objects and the
same literal *types* — only the literal *values* may differ.  The shape
key files the compiled kernel; the values become the runtime parameter
vector ``P`` that a generated kernel receives on every call, and the
dense variable names map the kernel's dataflow back to this program's
variables.  Constants are never baked into generated source, so two
same-shape queries share one kernel but can never share each other's
results (the cache-poisoning hazard the oracle suite regresses).

Structural constants — the ones that legitimately change what code is
generated — stay in the key verbatim:

* catalog object names (``sql.bind`` / ``sql.tid`` / ``sql.count`` /
  ``sql.crackedselect`` / ``sql.joinindex`` arguments): they determine
  column types;
* the atom-name argument of ``sql.constcolumn``: it determines the
  output dtype;
* booleans and ``None`` anywhere: they select comparison operators and
  open range bounds at compile time.
"""

from dataclasses import dataclass

from repro.mal.ast import Const, Var

#: Per-op argument positions whose constant values are part of the
#: shape (object names and type names), not runtime parameters.
STRUCTURAL_ARGS = {
    "sql.bind": frozenset((0, 1)),
    "sql.tid": frozenset((0,)),
    "sql.count": frozenset((0,)),
    "sql.crackedselect": frozenset((0, 1)),
    "sql.joinindex": frozenset((0, 1, 2, 3)),
    "sql.constcolumn": frozenset((2,)),
}


@dataclass(frozen=True)
class PlanShape:
    """Normalized identity of a MAL program."""

    key: tuple          # hashable kernel key
    params: tuple       # literal values, in parameter-slot order
    names: tuple        # dense variable id -> this program's name


def _structural(op, position, value):
    if isinstance(value, bool) or value is None:
        return True
    return position in STRUCTURAL_ARGS.get(op, ())


def normalize(program):
    """Normalize a program into a :class:`PlanShape`.

    Variable names are replaced by dense first-definition ids, so alpha-
    renamed plans (the compiler's fresh-variable counters) normalize to
    the same key; ``names`` maps each id back to this program's name.
    The parameter slot order is the deterministic walk order
    (instruction by instruction, argument by argument) that
    :mod:`repro.compile.codegen` uses to emit ``P[slot]`` references.
    """
    var_ids = {}
    params = []
    items = []
    for instr in program.instructions:
        arg_keys = []
        for position, arg in enumerate(instr.args):
            if isinstance(arg, Var):
                arg_keys.append(("v", var_ids.get(arg.name, -1)))
                continue
            value = arg.value
            if _structural(instr.op, position, value):
                arg_keys.append(("s", repr(value)))
            else:
                arg_keys.append(("p", type(value).__name__))
                params.append(value)
        for name in instr.results:
            if name not in var_ids:
                var_ids[name] = len(var_ids)
        items.append((instr.op, tuple(arg_keys),
                      tuple(var_ids[n] for n in instr.results)))
    returns = tuple(var_ids.get(name, -1) for name in program.returns)
    return PlanShape(key=(tuple(items), returns), params=tuple(params),
                     names=tuple(var_ids))


def param_slots(program):
    """(instruction index, argument index) -> parameter slot mapping.

    The walk order matches :func:`normalize`, so codegen and the
    per-execution parameter vector agree on slot numbering.
    """
    slots = {}
    for i, instr in enumerate(program.instructions):
        for position, arg in enumerate(instr.args):
            if isinstance(arg, Const) and \
                    not _structural(instr.op, position, arg.value):
                slots[(i, position)] = len(slots)
    return slots
