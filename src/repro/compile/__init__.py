"""repro.compile: plan-fragment compilation into fused kernels.

The operator-at-a-time interpreter pays dispatch, BAT headers, property
maintenance and full intermediate materialization per instruction —
the paper's "interpretation tax" that architecture evolution keeps
paying down.  This package recognizes hot scan→filter→project→aggregate
pipelines in optimized MAL plans and compiles each into a generated
Python function over raw numpy arrays: one pass, zero intermediate
BATs, constants parameterized so one kernel serves every same-shape
query.  Morsel workers run the same kernels: each runs its statement's
part plan through the engine's compile path.

Entry points:

* ``Database`` — every engine runs its planned programs through
  :class:`PlanCompiler` with transparent per-fragment fallback to the
  interpreter; ``SET compile = false`` pins the interpreter;
* :class:`PlanCompiler` — the embeddable driver (kernel store lookup by
  shape key, codegen fault site, mixed fragment/interpreter execution);
* :func:`normalize` — a program's :class:`PlanShape`: its kernel key,
  parameter vector and dense variable names, the one identity the
  statement cache files beside each plan it keeps.

This package imports nothing from the SQL layer or the engines built
on it; they hand it programs, shapes and the kernel store.
"""

from repro.compile.codegen import (CompiledPlan, CompileUnsupported,
                                   MIN_FRAGMENT_OPS, compile_program)
from repro.compile.executor import PlanCompiler
from repro.compile.shapes import PlanShape, normalize

__all__ = [
    "CompileUnsupported",
    "CompiledPlan",
    "MIN_FRAGMENT_OPS",
    "PlanCompiler",
    "PlanShape",
    "compile_program",
    "normalize",
]
