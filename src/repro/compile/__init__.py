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

* ``Database.execute(sql, compile=True)`` / ``SET compile = true`` —
  per-statement or per-session opt-in with transparent per-fragment
  fallback to the interpreter;
* :class:`PlanCompiler` — the embeddable driver (shape normalization,
  kernel cache, codegen fault site, mixed fragment/interpreter
  execution).
"""

from repro.compile.cache import KernelCache
from repro.compile.codegen import (CompiledPlan, CompileUnsupported,
                                   MIN_FRAGMENT_OPS, compile_program)
from repro.compile.executor import PlanCompiler
from repro.compile.shapes import COMPILER_VERSION, PlanShape, normalize

__all__ = [
    "COMPILER_VERSION",
    "CompileUnsupported",
    "CompiledPlan",
    "KernelCache",
    "MIN_FRAGMENT_OPS",
    "PlanCompiler",
    "PlanShape",
    "compile_program",
    "normalize",
]
