"""Runtime support for generated kernels.

Generated kernels (see :mod:`repro.compile.codegen`) work on *raw numpy
arrays* — candidate lists are plain ``int64`` position arrays, value
columns are dtype arrays, string columns are offset arrays plus their
heap.  Intermediate results never become BATs; only fragment live-outs
are wrapped back (:func:`wrap_output`).  Everything here mirrors the
semantics of :mod:`repro.core.algebra` exactly — bit-identical results,
minus the per-operator BAT headers, property passes and dispatch that
the operator-at-a-time interpreter pays (Section 5's interpretation
tax).

The :class:`FragmentContext` is the kernel's door back into the engine:
catalog reads (``sql.bind`` / ``sql.tid`` / ``sql.crackedselect``) go
through it so compiled fragments see exactly the view — base catalog or
transaction snapshot — the interpreter would, and so profiling can
charge the fragment's real memory traffic against a simulated
hierarchy.
"""

import numpy as np

from repro.core.algebra import group_arrays
from repro.core.atoms import _ATOMS, BIT, DBL, LNG, OID, STR
from repro.core.bat import BAT
from repro.core.heap import StringHeap
from repro.mal.interpreter import CPU_CYCLES_PER_TUPLE, DISPATCH_CYCLES

#: Atom registry for generated source (``rt.ATOMS['lng']``).
ATOMS = dict(_ATOMS)


class FragmentContext:
    """Catalog access + optional hardware charging for one kernel run."""

    def __init__(self, catalog, hierarchy=None):
        self.catalog = catalog
        self.hierarchy = hierarchy

    # -- catalog callbacks (the only non-array inputs of a fragment) --------

    def bind(self, table, column):
        bat = self.catalog.bind(table, column)
        self._charge_read(bat)
        return bat

    def tid(self, table):
        bat = self.catalog.tid(table)
        self._charge_read(bat)
        return bat.tail

    def count(self, table):
        return self.catalog.count(table)

    def cracked_select(self, table, column, lo, hi, lo_incl, hi_incl):
        bat = self.catalog.cracked_select(table, column, lo, hi,
                                          lo_incl, hi_incl)
        return bat.tail

    def join_index(self, fk_table, fk_column, pk_table, pk_column):
        bat = self.catalog.join_index(fk_table, fk_column,
                                      pk_table, pk_column)
        self._charge_read(bat)
        return bat

    # -- simulated-hardware accounting --------------------------------------

    def _charge_read(self, bat):
        if self.hierarchy is not None and len(bat):
            from repro.hardware import trace as trace_mod
            self.hierarchy.access(trace_mod.sequential(
                bat.tail_base, len(bat), bat.atom.width))

    def charge_outputs(self, bats):
        """One fused fragment = one dispatch, and only the live-outs are
        materialized (the interpreter pays dispatch + full write per
        instruction instead)."""
        if self.hierarchy is None:
            return
        from repro.hardware import trace as trace_mod
        tuples = 0
        for bat in bats:
            if isinstance(bat, BAT) and len(bat):
                self.hierarchy.access(trace_mod.sequential(
                    bat.tail_base, len(bat), bat.atom.width))
                tuples += len(bat)
        self.hierarchy.add_cpu_cycles(DISPATCH_CYCLES
                                      + CPU_CYCLES_PER_TUPLE * tuples)


# ---------------------------------------------------------------------------
# positions and strings
# ---------------------------------------------------------------------------

def positions(bat, cand):
    """Candidate oids -> physical tail positions of a bound BAT."""
    if bat.hseqbase:
        return cand - bat.hseqbase
    return cand


def oids(bat, pos):
    """Physical positions -> candidate oids of a bound BAT."""
    if bat.hseqbase:
        return pos + bat.hseqbase
    return pos


def decode(offsets, heap):
    """String offsets -> object array of decoded values (algebra's
    ``_comparable_tail`` shape, used for ordering and general calc)."""
    return np.asarray(heap.get_many(offsets), dtype=object)


def const_str(count, value):
    """A constant string column: fresh heap + repeated offset (mirrors
    ``BAT.from_values([value] * n)`` with interning)."""
    heap = StringHeap()
    offset = heap.put(value)
    return np.full(count, offset, dtype=np.int64), heap


# ---------------------------------------------------------------------------
# selections (positions in, positions out)
# ---------------------------------------------------------------------------

def select_eq(bat, value, cand, dense_ok=False):
    """``algebra.select``: candidates whose tail equals ``value``.

    ``dense_ok`` is set by codegen when ``cand`` is provably a
    sorted-unique subset of the table's positions (a ``sql.tid``
    lineage): a full-length candidate list is then exactly
    ``arange(n)`` and the per-conjunct gather can be skipped — the
    specialization the generic operator cannot make.
    """
    tail = bat.tail
    if bat.atom.varsized:
        offset = bat.heap.find(value)
        if offset is None:
            return np.empty(0, dtype=np.int64)
        needle = offset
    else:
        needle = bat.atom.array([value])[0]
    if dense_ok and not bat.hseqbase and len(cand) == len(tail):
        return np.flatnonzero(tail == needle)
    pos = positions(bat, cand)
    return oids(bat, pos[tail[pos] == needle])


def mask_range(values, lo, hi, lo_incl, hi_incl):
    """The boolean mask of ``algebra.selectrange``'s general branch."""
    mask = np.ones(len(values), dtype=bool)
    if lo is not None:
        mask &= (values >= lo) if lo_incl else (values > lo)
    if hi is not None:
        mask &= (values <= hi) if hi_incl else (values < hi)
    return mask


def select_range(bat, lo, hi, lo_incl, hi_incl, cand, dense_ok=False):
    """``algebra.selectrange`` over an explicit candidate list."""
    tail = bat.tail
    if dense_ok and not bat.hseqbase and not bat.atom.varsized \
            and len(cand) == len(tail):
        return np.flatnonzero(mask_range(tail, lo, hi, lo_incl, hi_incl))
    pos = positions(bat, cand)
    values = tail[pos]
    if bat.atom.varsized:
        values = decode(values, bat.heap)
    return oids(bat, pos[mask_range(values, lo, hi, lo_incl, hi_incl)])


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

#: ``group.group`` on raw arrays — the interpreter's operator itself.
group = group_arrays


def unique_positions(values):
    """``algebra.unique``: first-occurrence positions, ascending."""
    _, extents, _ = group(values)
    return np.sort(extents)


# ---------------------------------------------------------------------------
# aggregates (nil semantics identical to repro.core.algebra)
# ---------------------------------------------------------------------------

def _valid_mask(values, atom, heap):
    if atom.varsized:
        return values != heap.NIL_OFFSET if heap is not None \
            else values != STR.nil
    return ~atom.is_nil(values)


def agg_count(values, atom, heap=None):
    return int(np.count_nonzero(_valid_mask(values, atom, heap)))


def agg_sum(values, atom, heap=None):
    mask = _valid_mask(values, atom, heap)
    if not mask.any():
        return None
    kept = values[mask]
    if kept.dtype.kind == "f":
        return float(kept.sum())
    return int(kept.sum())


def agg_min(values, atom, heap=None):
    mask = _valid_mask(values, atom, heap)
    if not mask.any():
        return None
    if atom.varsized:
        return min(decode(values, heap)[mask])
    return values[mask].min().item()


def agg_max(values, atom, heap=None):
    mask = _valid_mask(values, atom, heap)
    if not mask.any():
        return None
    if atom.varsized:
        return max(decode(values, heap)[mask])
    return values[mask].max().item()


def agg_avg(values, atom, heap=None):
    count = agg_count(values, atom, heap)
    if count == 0:
        return None
    return agg_sum(values, atom, heap) / count


def grouped_sum(values, gids, ngroups):
    sums = np.bincount(gids, weights=values.astype(np.float64),
                       minlength=ngroups)
    if values.dtype.kind == "f":
        return sums
    return sums.astype(np.int64)


def grouped_count(gids, ngroups):
    return np.bincount(gids, minlength=ngroups).astype(np.int64)


def grouped_min(values, gids, ngroups, dtype):
    out = np.full(ngroups, np.inf)
    np.minimum.at(out, gids, values.astype(np.float64))
    if values.dtype.kind == "f":
        return out
    return out.astype(dtype)


def grouped_max(values, gids, ngroups, dtype):
    out = np.full(ngroups, -np.inf)
    np.maximum.at(out, gids, values.astype(np.float64))
    if values.dtype.kind == "f":
        return out
    return out.astype(dtype)


def grouped_avg(values, gids, ngroups):
    sums = np.bincount(gids, weights=values.astype(np.float64),
                       minlength=ngroups)
    counts = np.bincount(gids, minlength=ngroups)
    with np.errstate(invalid="ignore", divide="ignore"):
        return sums / counts


# ---------------------------------------------------------------------------
# live-out wrapping
# ---------------------------------------------------------------------------

_WRAP_ATOMS = {"oid": OID, "bit": BIT, "lng": LNG, "dbl": DBL, "str": STR}


def wrap_output(kind, atom, value, heap=None):
    """Fragment live-out -> engine value (BAT or scalar).

    Intermediates inside a fragment are never wrapped; only values that
    cross back into interpreted code (or the result set) pay for a BAT
    header here — the array itself is shared, not copied.
    """
    if kind == "scalar":
        return value
    if kind == "str":
        return BAT(STR, np.asarray(value, dtype=np.int64), heap=heap)
    return BAT(atom, value)
