"""MAL program representation.

A MAL program is a flat list of instructions of the form::

    (r1, r2, ...) := module.operation(arg, arg, ...);

Each instruction maps onto exactly one kernel operation with zero degrees
of freedom (Section 3): arguments are variables or literal constants,
never expressions.  The final ``return`` statement names the program's
result variables.
"""

from dataclasses import dataclass, field

#: ``Const.slot`` of a constant computed from, or merged with, a
#: statement literal: the plan holding it is only valid for the literal
#: values it was built from.
DERIVED = -1


@dataclass(frozen=True)
class Var:
    """Reference to a MAL variable."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    """A literal constant argument.

    ``slot`` ties the constant to a statement literal (the index of its
    value in the literal vector the SQL statement cache rebinds per
    execution); None for constants the compiler made up, ``DERIVED``
    for constants an optimizer computed from, or merged with, a slotted
    one.  It is not part of equality: two constants are equal when
    their values are.
    """

    value: object
    slot: int = field(default=None, compare=False, repr=False)

    def __str__(self):
        if isinstance(self.value, str):
            return '"{0}"'.format(self.value.replace('"', '\\"'))
        if self.value is None:
            return "nil"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return repr(self.value)


@dataclass
class MALInstruction:
    """One MAL statement: results := op(args).

    ``recycle`` is set by the recycler optimizer module on instructions
    whose results are worth caching (Section 6.1).
    """

    results: tuple
    op: str
    args: tuple
    recycle: bool = False

    def __post_init__(self):
        self.results = tuple(self.results)
        self.args = tuple(self.args)
        for arg in self.args:
            if not isinstance(arg, (Var, Const)):
                raise TypeError(
                    "MAL arguments must be Var or Const, got {0!r}".format(arg))

    @property
    def arg_vars(self):
        return tuple(a.name for a in self.args if isinstance(a, Var))

    def signature(self):
        """Structural identity used by CSE and the recycler."""
        return (self.op,) + tuple(
            ("v", a.name) if isinstance(a, Var) else ("c", repr(a.value))
            for a in self.args)

    def __str__(self):
        args = ", ".join(str(a) for a in self.args)
        call = "{0}({1})".format(self.op, args)
        if not self.results:
            return call + ";"
        if len(self.results) == 1:
            lhs = self.results[0]
        else:
            lhs = "(" + ", ".join(self.results) + ")"
        marker = "  # <recycle>" if self.recycle else ""
        return "{0} := {1};{2}".format(lhs, call, marker)


@dataclass
class MALProgram:
    """A straight-line MAL program plus its return variables."""

    instructions: list = field(default_factory=list)
    returns: tuple = ()
    name: str = "user.main"

    def append(self, results, op, args):
        """Convenience builder used by front-end compilers."""
        instr = MALInstruction(tuple(results), op, tuple(args))
        self.instructions.append(instr)
        return instr

    def copy(self):
        return MALProgram(
            instructions=[MALInstruction(i.results, i.op, i.args, i.recycle)
                          for i in self.instructions],
            returns=tuple(self.returns),
            name=self.name)

    def defined_variables(self):
        names = set()
        for instr in self.instructions:
            names.update(instr.results)
        return names

    def validate(self):
        """Check def-before-use and that returns are defined."""
        defined = set()
        for instr in self.instructions:
            for name in instr.arg_vars:
                if name not in defined:
                    raise ValueError(
                        "variable {0!r} used before definition in: {1}".format(
                            name, instr))
            defined.update(instr.results)
        for name in self.returns:
            if name not in defined:
                raise ValueError("return of undefined variable "
                                 "{0!r}".format(name))
        return self

    def __str__(self):
        lines = ["function {0}():".format(self.name)]
        lines.extend("    " + str(i) for i in self.instructions)
        if self.returns:
            lines.append("    return {0};".format(", ".join(self.returns)))
        lines.append("end {0};".format(self.name))
        return "\n".join(lines)

    def __len__(self):
        return len(self.instructions)
