"""Optimizer-module plumbing: purity rules, module wrapper, pipeline."""

from dataclasses import dataclass

from repro.mal.ast import MALProgram

# Operations whose execution has side effects or depends on hidden state;
# they may never be eliminated, folded, or deduplicated.  Subsystems
# register their own (e.g. the DataCell adds its basket operations).
IMPURE_OPS = set()


def register_impure(op_name):
    IMPURE_OPS.add(op_name)


def is_pure(op_name):
    return op_name not in IMPURE_OPS


@dataclass(frozen=True)
class OptimizerModule:
    """A named program-to-program rewrite.

    A module passes constants through with their ``Const.slot`` (the
    SQL statement cache rebinds slotted constants per execution); a
    constant it computes from or merges with a slotted one gets
    ``DERIVED``, which pins the plan to the literal values it was built
    from.
    """

    name: str
    rewrite: callable

    def __call__(self, program):
        out = self.rewrite(program.copy())
        if not isinstance(out, MALProgram):
            raise TypeError("optimizer {0!r} must return a MALProgram".format(
                self.name))
        return out.validate()


def optimizer(name):
    """Decorator turning a rewrite function into an OptimizerModule."""
    def wrap(fn):
        return OptimizerModule(name, fn)
    return wrap


class Pipeline:
    """An ordered sequence of optimizer modules."""

    def __init__(self, modules):
        self.modules = list(modules)

    def optimize(self, program):
        for module in self.modules:
            program = module(program)
        return program

    def __call__(self, program):
        return self.optimize(program)

    def with_module(self, module):
        """A new pipeline with one more module appended."""
        return Pipeline(self.modules + [module])

    def __repr__(self):
        return "Pipeline([{0}])".format(
            ", ".join(m.name for m in self.modules))
