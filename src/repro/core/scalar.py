"""Row-at-a-time SQL operators: one table for every scalar evaluator.

Column kernels (:func:`repro.core.algebra.calc`, generated kernels, the
vectorized primitives) compute whole arrays with numpy, and so does
the split-query finish of morsel workers and shards
(:mod:`repro.sql.partials`).  What is left is computed one value at a
time: the ``calc.*`` kernels and constant folding, the scalar lines of
generated kernels and view maintenance (:mod:`repro.views`, whose
backing rows evaluate the finish's merge trees one group at a time).  All of it goes through
:data:`SCALAR_OPS`, so one expression gives one answer whichever
engine evaluates it:

* None is SQL NULL.  Arithmetic, comparisons, negation and NOT of None
  give None; AND/OR read None as false, as a WHERE clause does.
* A zero divisor gives what :func:`~repro.core.algebra.calc` gives for
  a one-row column: ``x / 0`` is ``inf`` or ``-inf`` (``nan`` for
  ``0 / 0``), ``x % 0`` is 0 for integers and ``nan`` for floats.  No
  numpy warning is raised.

Keys are the MAL ``calc.*`` names (``==``, ``!=``, ...) plus the SQL
spellings ``=`` and ``<>``; the unary operators are ``not``, ``neg``
and ``isnil``.
"""

import numpy as np


def _by_zero(ufunc, a, b):
    """``ufunc(a, b)`` for a zero ``b``, as the column kernel computes
    it over a one-row column."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return ufunc(np.asarray([a]), b)[0].item()


def _divide(a, b):
    if a is None or b is None:
        return None
    if b == 0:
        return _by_zero(np.divide, a, b)
    return a / b


def _modulo(a, b):
    if a is None or b is None:
        return None
    if b == 0:
        return _by_zero(np.mod, a, b)
    return a % b


SCALAR_OPS = {
    "+": lambda a, b: None if a is None or b is None else a + b,
    "-": lambda a, b: None if a is None or b is None else a - b,
    "*": lambda a, b: None if a is None or b is None else a * b,
    "/": _divide,
    "%": _modulo,
    "==": lambda a, b: None if a is None or b is None else a == b,
    "!=": lambda a, b: None if a is None or b is None else a != b,
    "<": lambda a, b: None if a is None or b is None else a < b,
    "<=": lambda a, b: None if a is None or b is None else a <= b,
    ">": lambda a, b: None if a is None or b is None else a > b,
    ">=": lambda a, b: None if a is None or b is None else a >= b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
    "not": lambda a: None if a is None else not a,
    "neg": lambda a: None if a is None else -a,
    "isnil": lambda a: a is None,
}
SCALAR_OPS["="] = SCALAR_OPS["=="]
SCALAR_OPS["<>"] = SCALAR_OPS["!="]
