"""The kernel registry: MAL operation names -> BAT Algebra implementations.

This is the third tier of Section 3.1 — "the library of highly optimized
implementations of the binary relational algebra operators" — exposed
under the dotted names MAL instructions use (``algebra.select``,
``batcalc.+``, ``aggr.sum``, ...).  The MAL interpreter resolves each
instruction against this registry; optimizer modules rewrite programs in
terms of these same names.
"""

from dataclasses import dataclass

from repro.core import algebra
from repro.core.bat import BAT
from repro.core.scalar import SCALAR_OPS


@dataclass(frozen=True)
class KernelFunction:
    """A registered kernel operation."""

    name: str
    fn: callable
    n_results: int = 1

    def __call__(self, *args):
        return self.fn(*args)


KERNEL = {}


def register(name, fn, n_results=1):
    if name in KERNEL:
        raise ValueError("duplicate kernel op {0!r}".format(name))
    KERNEL[name] = KernelFunction(name, fn, n_results)
    return KERNEL[name]


def lookup_op(name):
    try:
        return KERNEL[name]
    except KeyError:
        raise KeyError("unknown kernel operation {0!r}".format(name)) \
            from None


# -- selections -------------------------------------------------------------

register("algebra.select", algebra.select_eq)
register("algebra.selectrange", algebra.select_range)
register("algebra.selectmask", algebra.select_mask)

# -- projection ---------------------------------------------------------------

register("algebra.project", algebra.project)
register("algebra.leftfetchjoin", algebra.project)  # MonetDB's classic name
register("algebra.projectconst", algebra.project_const)


def _const_column(aligned, value, atom_name):
    from repro.core.atoms import atom_by_name
    return algebra.project_const(aligned, value, atom_by_name(atom_name))


register("sql.constcolumn", _const_column)

# -- joins ---------------------------------------------------------------------

register("algebra.join", algebra.join, n_results=2)
register("algebra.semijoin", algebra.semijoin)
register("algebra.antijoin", algebra.antijoin)

# -- candidate set operations ---------------------------------------------------

register("candidates.intersect", algebra.cand_intersect)
register("candidates.union", algebra.cand_union)
register("candidates.diff", algebra.cand_diff)
register("candidates.filter", algebra.cand_filter)
register("candidates.compose", algebra.cand_compose)

# -- sorting / grouping -----------------------------------------------------------

register("algebra.sort", algebra.sort, n_results=2)
register("algebra.order", algebra.order)
register("algebra.sortmulti", algebra.sort_multi)
register("algebra.unique", algebra.unique)
register("group.group", algebra.group, n_results=3)
register("candidates.sort", algebra.cand_sort)

# -- aggregates -------------------------------------------------------------------

register("aggr.count", algebra.aggr_count)
register("aggr.sum", algebra.aggr_sum)
register("aggr.min", algebra.aggr_min)
register("aggr.max", algebra.aggr_max)
register("aggr.avg", algebra.aggr_avg)
register("aggr.grouped_sum", algebra.grouped_sum)
register("aggr.grouped_count", algebra.grouped_count)
register("aggr.grouped_min", algebra.grouped_min)
register("aggr.grouped_max", algebra.grouped_max)
register("aggr.grouped_avg", algebra.grouped_avg)

# -- element-wise calculations -------------------------------------------------------

for _op in ("+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=",
            "and", "or"):
    register("batcalc." + _op,
             (lambda op: lambda left, right: algebra.calc(op, left, right))
             (_op))
register("batcalc.not", algebra.calc_not)
register("batcalc.isnil", algebra.calc_isnil)
register("batcalc.ifthenelse", algebra.ifthenelse)

# -- scalar calculations (fold-able by the constant-folding optimizer) --------

for _op in ("+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=",
            "and", "or", "not", "isnil"):
    register("calc." + _op, SCALAR_OPS[_op])

# -- structural BAT operations ----------------------------------------------------------

register("bat.mirror", BAT.mirror)
register("bat.reverse", BAT.reverse)
register("bat.mark", BAT.mark)
register("bat.slice", lambda b, lo, hi: b.slice(int(lo), int(hi)))
register("bat.copy", BAT.copy)
register("bat.count", lambda b: len(b))
