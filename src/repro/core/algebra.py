"""The BAT Algebra: zero-degrees-of-freedom bulk operators.

Every operator does one simple thing to entire columns and materializes
its result as a BAT (operator-at-a-time, Section 3).  None of them takes a
complex expression: complex predicates are broken into sequences of these
operators by the front-end, which is what removes the expression
interpreter from the critical code path.

Conventions
-----------
* *Candidate lists* are void-headed oid BATs holding the qualifying head
  oids of some base BAT in ascending order — the ``R.tail[j++] = i`` shape
  of the paper's example ``select``.
* Join results are pairs of aligned candidate lists (left oids, right
  oids).
* All functions are pure: inputs are never mutated.

Physical operator choice
------------------------
As Section 3.1 describes, an operator picks its algorithm *tactically at
run time* from what the data looks like.  Grouping and the equi-join
take a direct-address path when the column is integer-typed and its
value span ``max - min + 1`` is at most :data:`DENSE_SPAN_FACTOR` times
the row count (for the join: the build side's, which must also be a
key); otherwise they fall back to sorting.  Both paths give
bit-identical results.  :func:`group_arrays` is the one grouping
operator, shared by the interpreter and generated kernels.
"""

import numpy as np

from repro.core.atoms import BIT, DBL, LNG, OID, STR, Atom
from repro.core.bat import BAT

#: Dense-domain paths run when max - min + 1 <= this x the row count.
DENSE_SPAN_FACTOR = 2


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _candidates_to_positions(bat, candidates):
    """Physical tail positions selected by a candidate list (or all)."""
    if candidates is None:
        return np.arange(len(bat), dtype=np.int64)
    if not bat.hdense:
        raise ValueError("candidate lists require a void-headed BAT")
    return np.asarray(candidates.tail, dtype=np.int64) - bat.hseqbase

def _positions_to_candidates(bat, positions):
    oids = bat.hseqbase + np.asarray(positions, dtype=np.int64)
    return BAT(OID, oids, tsorted=bool(np.all(oids[1:] >= oids[:-1]))
               if len(oids) > 1 else True, tkey=True)

def _comparable_tail(bat, positions=None):
    """Tail values in a form usable for ordering (strings decoded)."""
    tail = bat.tail if positions is None else bat.tail[positions]
    if bat.atom.varsized:
        return np.asarray(bat.heap.get_many(tail), dtype=object)
    return tail


def _dense_span(values, limit):
    """``(lo, span)`` of a non-empty integer array whose value span is
    at most ``limit``, else None.  Floats, bools and empty inputs fail,
    and so does a nil sentinel (the domain minimum) among real values."""
    if len(values) == 0 or values.dtype.kind not in "iu":
        return None
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    return (lo, span) if span <= limit else None


# ---------------------------------------------------------------------------
# selections
# ---------------------------------------------------------------------------

def select_eq(bat, value, candidates=None):
    """Candidates whose tail equals ``value`` (the paper's select(B, V))."""
    positions = _candidates_to_positions(bat, candidates)
    if bat.atom.varsized:
        offset = bat.heap.find(value)
        if offset is None:
            return _positions_to_candidates(bat, np.empty(0, dtype=np.int64))
        mask = bat.tail[positions] == offset
    else:
        mask = bat.tail[positions] == bat.atom.array([value])[0]
    return _positions_to_candidates(bat, positions[mask])


def select_range(bat, lo=None, hi=None, lo_incl=True, hi_incl=False,
                 candidates=None):
    """Candidates with lo (<|<=) tail (<|<=) hi; None bounds are open.

    A sorted tail (``tsorted``) is exploited with binary search when the
    whole BAT is selected — the property-driven algorithm choice of
    Section 3.1.
    """
    if candidates is None and bat.tsorted and not bat.atom.varsized \
            and len(bat) > 0:
        tail = bat.tail
        start = 0
        stop = len(tail)
        if lo is not None:
            start = int(np.searchsorted(tail, lo,
                                        side="left" if lo_incl else "right"))
        if hi is not None:
            stop = int(np.searchsorted(tail, hi,
                                       side="right" if hi_incl else "left"))
        positions = np.arange(start, max(start, stop), dtype=np.int64)
        return _positions_to_candidates(bat, positions)
    positions = _candidates_to_positions(bat, candidates)
    values = _comparable_tail(bat, positions)
    mask = np.ones(len(positions), dtype=bool)
    if lo is not None:
        mask &= (values >= lo) if lo_incl else (values > lo)
    if hi is not None:
        mask &= (values <= hi) if hi_incl else (values < hi)
    return _positions_to_candidates(bat, positions[mask])


def estimate_selectivity(bat, lo=None, hi=None, lo_incl=True,
                         hi_incl=False, sample_size=64):
    """Estimated fraction of tuples in the range, from a sample.

    Section 3.1: the kernel "may call for a sample to derive the
    expected sizes".  The sample is evenly spaced (deterministic, no
    randomness in the critical path); empty BATs estimate 0.
    """
    n = len(bat)
    if n == 0:
        return 0.0
    step = max(n // sample_size, 1)
    positions = np.arange(0, n, step, dtype=np.int64)
    values = _comparable_tail(bat, positions)
    mask = np.ones(len(positions), dtype=bool)
    if lo is not None:
        mask &= (values >= lo) if lo_incl else (values > lo)
    if hi is not None:
        mask &= (values <= hi) if hi_incl else (values < hi)
    return float(np.count_nonzero(mask)) / len(positions)


def select_mask(bat, mask_bat, candidates=None):
    """Candidates where an aligned bit BAT is true."""
    positions = _candidates_to_positions(bat, candidates)
    mask = mask_bat.tail[positions].astype(bool)
    return _positions_to_candidates(bat, positions[mask])


# ---------------------------------------------------------------------------
# projection (tuple reconstruction)
# ---------------------------------------------------------------------------

def project(candidates, bat):
    """leftfetchjoin: fetch ``bat``'s tail values at the candidate oids.

    The positional array gather this compiles to is the DSM tuple
    reconstruction step (Section 4.3).
    """
    positions = _candidates_to_positions(bat, candidates)
    return bat.fetch(positions)


def project_const(candidates, value, atom):
    """A column of ``len(candidates)`` copies of a constant."""
    if atom.varsized:
        return BAT.from_values([value] * len(candidates), atom=atom)
    return BAT(atom, np.full(len(candidates), value, dtype=atom.dtype))


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

def _join_positions_fixed(ltail, rtail):
    """Equi-join positions for fixed-width tails, in left order.

    A key build side over a compact integer domain is probed through a
    slot array (:func:`_join_positions_dense`); anything else is
    sort-merged.  Both emit the same positions in the same order.
    """
    if ltail.dtype.kind in "iu":
        dense = _dense_span(rtail, DENSE_SPAN_FACTOR * len(rtail))
        if dense is not None:
            found = _join_positions_dense(ltail, rtail, *dense)
            if found is not None:
                return found
    return _join_positions_sorted(ltail, rtail)


def _join_positions_dense(ltail, rtail, lo, span):
    """Direct-address join: ``slots[v - lo]`` is the right position
    holding ``v``.  None when ``rtail`` repeats a value (not a key)."""
    slots = np.full(span, -1, dtype=np.int64)
    slots[rtail.astype(np.int64, copy=False) - lo] = np.arange(
        len(rtail), dtype=np.int64)
    if np.count_nonzero(slots >= 0) != len(rtail):
        return None
    probe = ltail.astype(np.int64, copy=False)
    l_pos = np.flatnonzero((probe >= lo) & (probe <= lo + span - 1))
    r_pos = slots[probe[l_pos] - lo]
    hit = r_pos >= 0
    return l_pos[hit], r_pos[hit]


def _join_positions_sorted(ltail, rtail):
    """Sort-merge equi-join positions (any fixed-width tails)."""
    r_order = np.argsort(rtail, kind="stable")
    r_sorted = rtail[r_order]
    left = np.searchsorted(r_sorted, ltail, side="left")
    right = np.searchsorted(r_sorted, ltail, side="right")
    counts = right - left
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    l_pos = np.repeat(np.arange(len(ltail), dtype=np.int64), counts)
    # Offsets within each match run: 0..count-1 per left tuple.
    ends = np.cumsum(counts)
    run_offsets = np.arange(total, dtype=np.int64) - np.repeat(
        ends - counts, counts)
    r_pos = r_order[np.repeat(left, counts) + run_offsets]
    return l_pos, r_pos


def _join_positions_varsized(lbat, rbat):
    """Equi-join positions for string tails (heap-independent)."""
    lvalues = lbat.heap.get_many(lbat.tail)
    rvalues = rbat.heap.get_many(rbat.tail)
    by_value = {}
    for j, v in enumerate(rvalues):
        if v is not None:
            by_value.setdefault(v, []).append(j)
    l_pos = []
    r_pos = []
    for i, v in enumerate(lvalues):
        for j in by_value.get(v, ()):
            l_pos.append(i)
            r_pos.append(j)
    return (np.asarray(l_pos, dtype=np.int64),
            np.asarray(r_pos, dtype=np.int64))


def join(lbat, rbat):
    """Equi-join on tail values: aligned (left, right) candidate lists.

    Left order is preserved (a *leftjoin* in MonetDB terms), which keeps
    void-headed intermediates aligned during tuple reconstruction.
    """
    if lbat.atom.varsized != rbat.atom.varsized:
        raise TypeError("cannot join {0} with {1}".format(
            lbat.atom, rbat.atom))
    if lbat.atom.varsized:
        l_pos, r_pos = _join_positions_varsized(lbat, rbat)
    else:
        l_pos, r_pos = _join_positions_fixed(lbat.tail, rbat.tail)
    return (_positions_to_candidates(lbat, l_pos),
            _positions_to_candidates(rbat, r_pos))


def nested_loop_join(lbat, rbat):
    """Reference O(n*m) equi-join used to validate every other join."""
    lvalues = lbat.decoded()
    rvalues = rbat.decoded()
    l_pos = []
    r_pos = []
    for i, lv in enumerate(lvalues):
        for j, rv in enumerate(rvalues):
            if lv == rv and lv is not None:
                l_pos.append(i)
                r_pos.append(j)
    return (_positions_to_candidates(lbat, np.asarray(l_pos, dtype=np.int64)),
            _positions_to_candidates(rbat, np.asarray(r_pos, dtype=np.int64)))


def semijoin(lbat, rbat):
    """Candidates of ``lbat`` whose tail value occurs in ``rbat``."""
    if lbat.atom.varsized:
        rset = set(v for v in rbat.heap.get_many(rbat.tail) if v is not None)
        mask = np.asarray([v in rset for v in lbat.heap.get_many(lbat.tail)])
    else:
        mask = np.isin(lbat.tail, rbat.tail)
    return _positions_to_candidates(lbat, np.flatnonzero(mask))


def antijoin(lbat, rbat):
    """Candidates of ``lbat`` whose tail value does not occur in ``rbat``."""
    if lbat.atom.varsized:
        rset = set(v for v in rbat.heap.get_many(rbat.tail) if v is not None)
        mask = np.asarray([v not in rset
                           for v in lbat.heap.get_many(lbat.tail)])
    else:
        mask = ~np.isin(lbat.tail, rbat.tail)
    return _positions_to_candidates(lbat, np.flatnonzero(mask))


# ---------------------------------------------------------------------------
# candidate-list set operations
# ---------------------------------------------------------------------------

def cand_intersect(a, b):
    return BAT(OID, np.intersect1d(a.tail, b.tail), tsorted=True, tkey=True)


def cand_union(a, b):
    return BAT(OID, np.union1d(a.tail, b.tail), tsorted=True, tkey=True)


def cand_diff(a, b):
    return BAT(OID, np.setdiff1d(a.tail, b.tail), tsorted=True, tkey=True)


def cand_filter(candidates, mask_bat):
    """Candidates at positions where an aligned bit BAT is true.

    ``mask_bat`` must be aligned with ``candidates`` (same length) — the
    shape produced by evaluating a batcalc expression over columns already
    projected onto the candidate list.
    """
    if len(mask_bat) != len(candidates):
        raise ValueError("mask and candidate list are not aligned")
    mask = np.asarray(mask_bat.tail, dtype=bool)
    return BAT(OID, candidates.tail[mask].copy(), tkey=True)


def cand_compose(candidates, positions):
    """Candidates re-ordered/sub-set by a positions BAT.

    Used to compose a join's position output (positions *within* a
    candidate list) back into base-table oids, and to stack sort
    permutations.
    """
    pos = np.asarray(positions.tail, dtype=np.int64)
    return BAT(OID, candidates.tail[pos].copy())


# ---------------------------------------------------------------------------
# sorting and grouping
# ---------------------------------------------------------------------------

def order(bat, descending=False):
    """Stable sort order of the tail as a positions BAT (void-headed)."""
    values = _comparable_tail(bat)
    if bat.atom.varsized:
        keys = [(v is None, v if v is not None else "") for v in values]
        positions = np.asarray(
            sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
    else:
        positions = np.argsort(values, kind="stable").astype(np.int64)
    if descending:
        positions = positions[::-1].copy()
    return BAT(OID, positions)


def sort(bat, descending=False):
    """(sorted BAT, order BAT): tail sorted, plus the applied permutation."""
    positions = order(bat, descending=descending)
    sorted_bat = bat.fetch(positions.tail)
    sorted_bat._tsorted = not descending
    sorted_bat._trevsorted = descending
    return sorted_bat, positions


def group(bat, groups=None):
    """Group by tail value, optionally refining existing group ids.

    Returns ``(gids, extents, histogram)``:

    * ``gids`` — per-row dense group id (0..G-1), aligned with ``bat``;
    * ``extents`` — for each group, the position of its first member;
    * ``histogram`` — per-group member count.

    String tails group by heap offset: offsets are interned, so equal
    string <=> equal offset.
    """
    gids, extents, histogram = group_arrays(
        bat.tail, None if groups is None else groups.tail)
    return BAT(OID, gids), BAT(OID, extents), BAT(LNG, histogram)


def group_arrays(values, gids=None):
    """:func:`group` on raw arrays: ``(gids, extents, histogram)``.

    Groups are numbered in ascending value order on either path: direct
    addressing for one integer column over a compact domain, otherwise
    ``np.unique`` (a sort).  Refining existing ``gids`` always sorts.
    """
    if gids is None:
        dense = _dense_span(values, DENSE_SPAN_FACTOR * len(values))
        if dense is not None:
            return _group_dense(values, *dense)
    return _group_sorted(values, gids)


def _group_dense(values, lo, span):
    """Direct-address grouping: one counting pass over ``values - lo``."""
    slots = values.astype(np.int64, copy=False) - lo
    counts = np.bincount(slots, minlength=span)
    present = counts > 0
    gids = (np.cumsum(present) - 1)[slots]
    histogram = counts[present].astype(np.int64, copy=False)
    extents = np.full(len(histogram), len(values), dtype=np.int64)
    np.minimum.at(extents, gids, np.arange(len(values), dtype=np.int64))
    return gids, extents, histogram


def _group_sorted(values, gids=None):
    """``np.unique`` grouping, optionally refining existing gids."""
    if gids is not None:
        key = np.stack([gids.astype(np.int64),
                        values.astype(np.int64)
                        if values.dtype.kind != "f" else
                        values.view(np.int64)], axis=1)
        _, first_pos, out_gids = np.unique(key, axis=0, return_index=True,
                                           return_inverse=True)
    else:
        _, first_pos, out_gids = np.unique(values, return_index=True,
                                           return_inverse=True)
    out_gids = out_gids.astype(np.int64).reshape(-1)
    histogram = np.bincount(out_gids,
                            minlength=len(first_pos)).astype(np.int64)
    return out_gids, first_pos.astype(np.int64), histogram


def _sort_columns(bat, ascending):
    """One ORDER BY key as (nil-flag, value) lexsort columns.

    Nil (the int sentinel, NaN for floats, a nil string) sorts first
    ascending and last descending; a descending key negates its values,
    with nil zeroed first so negation cannot overflow.  Strings sort by
    their rank among the distinct decoded values.
    """
    tail = bat.tail
    if bat.atom.varsized:
        nil = tail == bat.heap.NIL_OFFSET
        value = np.zeros(len(tail), dtype=np.int64)
        present = np.asarray(bat.heap.get_many(tail[~nil]), dtype=object)
        value[~nil] = np.unique(present, return_inverse=True)[1]
    elif tail.dtype.kind == "b":
        nil = np.zeros(len(tail), dtype=bool)
        value = tail.astype(np.int8)
    else:
        nil = np.asarray(bat.atom.is_nil(tail), dtype=bool)
        value = np.where(nil, 0, tail)
    if ascending:
        return ~nil, value
    return nil, -value


def sort_multi(*keys_and_flags):
    """Multi-key stable sort order.

    Arguments alternate (key BAT, ascending flag):
    ``sort_multi(k1, True, k2, False)`` orders by k1 ascending, ties by
    k2 descending; rows tied on every key keep their input order.
    Returns a positions BAT, like :func:`order`.
    """
    keys = keys_and_flags[0::2]
    if not keys:
        raise ValueError("sort_multi needs at least one key")
    columns = []
    for key, ascending in zip(keys, keys_and_flags[1::2]):
        columns.extend(_sort_columns(key, bool(ascending)))
    # np.lexsort's last column is the primary key.
    return BAT(OID, np.lexsort(columns[::-1]).astype(np.int64))


def _nil_first_key(value):
    """Sort key for one decoded value: None and NaN (the DBL nil) order
    before everything else, as :func:`sort_multi` places nil."""
    if value is None or value != value:
        return (False, 0)
    return (True, value)


def order_rows(rows, keyed, ascending):
    """:func:`sort_multi` over Python rows: ``keyed(row, i)`` is row's
    i-th key, ``ascending[i]`` its direction.  Stable successive sorts
    from the minor key up (a reversed sort keeps ties in input order)."""
    out = list(rows)
    for i in range(len(ascending) - 1, -1, -1):
        out.sort(key=lambda row: _nil_first_key(keyed(row, i)),
                 reverse=not ascending[i])
    return out


def cand_sort(candidates):
    """Candidate list re-sorted into ascending oid order."""
    return BAT(OID, np.sort(candidates.tail), tsorted=True, tkey=True)


def unique(bat):
    """Candidates of the first occurrence of each distinct tail value."""
    _, extents, _ = group(bat)
    positions = np.sort(extents.tail)
    return _positions_to_candidates(bat, positions)


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------

def _valid_mask(bat):
    if bat.atom.varsized:
        return bat.tail != bat.heap.NIL_OFFSET
    return ~bat.atom.is_nil(bat.tail)


def aggr_count(bat):
    return int(np.count_nonzero(_valid_mask(bat)))


def aggr_sum(bat):
    mask = _valid_mask(bat)
    if not mask.any():
        return None
    values = bat.tail[mask]
    if values.dtype.kind == "f":
        return float(values.sum())
    return int(values.sum())


def aggr_min(bat):
    values = _comparable_tail(bat)
    mask = _valid_mask(bat)
    if not mask.any():
        return None
    values = values[mask]
    return min(values) if bat.atom.varsized else values.min().item()


def aggr_max(bat):
    values = _comparable_tail(bat)
    mask = _valid_mask(bat)
    if not mask.any():
        return None
    values = values[mask]
    return max(values) if bat.atom.varsized else values.max().item()


def aggr_avg(bat):
    count = aggr_count(bat)
    if count == 0:
        return None
    return aggr_sum(bat) / count


def grouped_sum(bat, gids, ngroups):
    """Per-group sums as a BAT aligned with group ids 0..ngroups-1."""
    weights = bat.tail.astype(np.float64)
    sums = np.bincount(gids.tail, weights=weights, minlength=ngroups)
    if bat.tail.dtype.kind == "f":
        return BAT(DBL, sums)
    return BAT(LNG, sums.astype(np.int64))


def grouped_count(bat, gids, ngroups):
    counts = np.bincount(gids.tail, minlength=ngroups)
    return BAT(LNG, counts.astype(np.int64))


def grouped_min(bat, gids, ngroups):
    out = np.full(ngroups, np.inf)
    np.minimum.at(out, gids.tail, bat.tail.astype(np.float64))
    return _grouped_extreme_result(bat, out)


def grouped_max(bat, gids, ngroups):
    out = np.full(ngroups, -np.inf)
    np.maximum.at(out, gids.tail, bat.tail.astype(np.float64))
    return _grouped_extreme_result(bat, out)


def _grouped_extreme_result(bat, out):
    if bat.tail.dtype.kind == "f":
        return BAT(DBL, out)
    return BAT(bat.atom, out.astype(bat.atom.dtype))


def grouped_avg(bat, gids, ngroups):
    sums = np.bincount(gids.tail, weights=bat.tail.astype(np.float64),
                       minlength=ngroups)
    counts = np.bincount(gids.tail, minlength=ngroups)
    with np.errstate(invalid="ignore", divide="ignore"):
        return BAT(DBL, sums / counts)


# ---------------------------------------------------------------------------
# batcalc: element-wise maps
# ---------------------------------------------------------------------------

_ARITH = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.mod,
}

_COMPARE = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_LOGIC = {
    "and": np.logical_and,
    "or": np.logical_or,
}


def _operand_array(operand):
    if isinstance(operand, BAT):
        if operand.atom.varsized:
            return np.asarray(operand.heap.get_many(operand.tail),
                              dtype=object)
        return operand.tail
    return operand


def calc(op, left, right):
    """Element-wise arithmetic/comparison/logic over BATs and scalars.

    Arithmetic yields a numeric BAT; comparisons and logic yield a bit
    BAT.  At least one operand must be a BAT; BAT operands must be
    aligned (equal length, void heads).
    """
    lval = _operand_array(left)
    rval = _operand_array(right)
    if op in _ARITH:
        result = _ARITH[op](lval, rval)
        if result.dtype.kind == "f":
            return BAT(DBL, result.astype(np.float64))
        return BAT(LNG, result.astype(np.int64))
    if op in _COMPARE:
        return BAT(BIT, _COMPARE[op](lval, rval).astype(bool))
    if op in _LOGIC:
        return BAT(BIT, _LOGIC[op](np.asarray(lval, dtype=bool),
                                   np.asarray(rval, dtype=bool)))
    raise KeyError("unknown calc operator {0!r}".format(op))


def calc_not(operand):
    return BAT(BIT, ~np.asarray(_operand_array(operand), dtype=bool))


def calc_isnil(operand):
    """Element-wise nil test (``IS NULL``).

    Nil is the atom's in-domain sentinel (var-sized atoms test the
    offset, so a None string is nil).  Boolean BATs are never nil: the
    engine does not model three-valued logic, so a comparison result
    ``IS NULL`` is all-false rather than treating False (the bit
    atom's nominal sentinel) as missing.
    """
    if not isinstance(operand, BAT):
        return operand is None
    if operand.atom is BIT or operand.atom.dtype.kind == "b":
        return BAT(BIT, np.zeros(len(operand), dtype=bool))
    if operand.atom.varsized:
        mask = np.asarray(operand.atom.is_nil(operand.tail), dtype=bool)
        return BAT(BIT, mask)
    return BAT(BIT, np.asarray(operand.atom.is_nil(operand.tail),
                               dtype=bool))


def ifthenelse(cond, then_bat, else_bat):
    """Element-wise conditional over aligned BATs."""
    mask = np.asarray(cond.tail, dtype=bool)
    result = np.where(mask, _operand_array(then_bat),
                      _operand_array(else_bat))
    atom = then_bat.atom if isinstance(then_bat, BAT) else else_bat.atom
    if atom.varsized:
        return BAT.from_values(list(result), atom=STR)
    return BAT(atom, result.astype(atom.dtype))
