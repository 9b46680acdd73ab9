"""Unit and property tests for the BAT Algebra."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BAT, BIT, DBL, INT, LNG, STR, algebra


def ages():
    # Figure 1's example column.
    return BAT.from_values([1907, 1927, 1927, 1968])


class TestSelect:
    def test_select_eq_is_papers_example(self):
        # select(age, 1927) -> positions 1 and 2 (Figure 1).
        cand = algebra.select_eq(ages(), 1927)
        assert cand.decoded() == [1, 2]

    def test_select_eq_no_match(self):
        assert algebra.select_eq(ages(), 1900).decoded() == []

    def test_select_eq_respects_hseqbase(self):
        b = BAT.from_values([1, 2, 1], hseqbase=50)
        assert algebra.select_eq(b, 1).decoded() == [50, 52]

    def test_select_eq_string_uses_heap_interning(self):
        b = BAT.from_values(["bob", "ann", "bob"])
        assert algebra.select_eq(b, "bob").decoded() == [0, 2]
        assert algebra.select_eq(b, "zoe").decoded() == []

    def test_select_range(self):
        cand = algebra.select_range(ages(), lo=1920, hi=1968)
        assert cand.decoded() == [1, 2]

    def test_select_range_inclusive_bounds(self):
        cand = algebra.select_range(ages(), lo=1927, hi=1968,
                                    lo_incl=True, hi_incl=True)
        assert cand.decoded() == [1, 2, 3]

    def test_select_range_open_ended(self):
        assert algebra.select_range(ages(), lo=1928).decoded() == [3]
        assert algebra.select_range(ages(), hi=1908).decoded() == [0]

    def test_select_range_sorted_uses_binary_search(self):
        b = BAT.from_values([1, 3, 5, 7, 9])
        assert b.tsorted
        cand = algebra.select_range(b, lo=3, hi=8)
        assert cand.decoded() == [1, 2, 3]

    def test_select_with_candidates_refines(self):
        b = ages()
        first = algebra.select_range(b, lo=1908)
        second = algebra.select_eq(b, 1927, candidates=first)
        assert second.decoded() == [1, 2]

    def test_select_mask(self):
        b = ages()
        mask = BAT(BIT, [True, False, False, True])
        assert algebra.select_mask(b, mask).decoded() == [0, 3]

    def test_select_range_strings(self):
        b = BAT.from_values(["ant", "bee", "cow"])
        cand = algebra.select_range(b, lo="b", hi="c")
        assert cand.decoded() == [1]

    @pytest.mark.parametrize("atom", [INT, LNG])
    def test_select_range_never_admits_nil(self, atom):
        """The integer nil is the domain minimum, so an open lower
        bound (or one at the nil itself) must exclude it — on the scan
        and on the sorted binary-search path."""
        nil = atom.nil
        scan = BAT(atom, [3, nil, 9, 1])
        assert algebra.select_range(scan, hi=5).decoded() == [0, 3]
        assert algebra.select_range(scan, lo=nil).decoded() == [0, 2, 3]
        ordered = BAT(atom, [nil, nil, 1, 3, 9])
        assert ordered.tsorted
        assert algebra.select_range(ordered, hi=3,
                                    hi_incl=True).decoded() == [2, 3]
        assert algebra.select_range(ordered).decoded() == [2, 3, 4]

    def test_select_range_skips_nil_strings(self):
        b = BAT.from_values(["ant", None, "cow"])
        assert algebra.select_range(b, hi="b").decoded() == [0]


class TestProject:
    def test_project_reconstructs_tuples(self):
        names = BAT.from_values(["john", "roger", "bob", "will"])
        cand = algebra.select_eq(ages(), 1927)
        assert algebra.project(cand, names).decoded() == ["roger", "bob"]

    def test_project_const(self):
        cand = algebra.select_eq(ages(), 1927)
        col = algebra.project_const(cand, 7, LNG)
        assert col.decoded() == [7, 7]

    def test_project_const_string(self):
        cand = algebra.select_eq(ages(), 1927)
        col = algebra.project_const(cand, "x", STR)
        assert col.decoded() == ["x", "x"]


class TestJoin:
    def test_simple_equijoin(self):
        l = BAT.from_values([1, 2, 3])
        r = BAT.from_values([3, 1, 1])
        lc, rc = algebra.join(l, r)
        pairs = set(zip(lc.decoded(), rc.decoded()))
        assert pairs == {(0, 1), (0, 2), (2, 0)}

    def test_join_preserves_left_order(self):
        l = BAT.from_values([5, 1, 5])
        r = BAT.from_values([5, 9])
        lc, rc = algebra.join(l, r)
        assert lc.decoded() == [0, 2]

    def test_join_duplicates_cross_product(self):
        l = BAT.from_values([7, 7])
        r = BAT.from_values([7, 7, 7])
        lc, rc = algebra.join(l, r)
        assert len(lc) == 6

    def test_join_strings_across_heaps(self):
        l = BAT.from_values(["a", "b"])
        r = BAT.from_values(["b", "c", "b"])
        lc, rc = algebra.join(l, r)
        assert set(zip(lc.decoded(), rc.decoded())) == {(1, 0), (1, 2)}

    def test_join_type_mismatch(self):
        with pytest.raises(TypeError):
            algebra.join(BAT.from_values([1]), BAT.from_values(["a"]))

    def test_semijoin_antijoin_partition(self):
        l = BAT.from_values([1, 2, 3, 4])
        r = BAT.from_values([2, 4, 9])
        semi = algebra.semijoin(l, r).decoded()
        anti = algebra.antijoin(l, r).decoded()
        assert semi == [1, 3]
        assert anti == [0, 2]
        assert sorted(semi + anti) == [0, 1, 2, 3]

    def test_semijoin_strings(self):
        l = BAT.from_values(["x", "y"])
        r = BAT.from_values(["y"])
        assert algebra.semijoin(l, r).decoded() == [1]
        assert algebra.antijoin(l, r).decoded() == [0]


class TestCandidateSets:
    def test_intersect_union_diff(self):
        a = BAT.from_values([0, 1, 4], atom=None)
        b = BAT.from_values([1, 2, 4])
        assert algebra.cand_intersect(a, b).decoded() == [1, 4]
        assert algebra.cand_union(a, b).decoded() == [0, 1, 2, 4]
        assert algebra.cand_diff(a, b).decoded() == [0]


class TestSortGroup:
    def test_sort_returns_order(self):
        b = BAT.from_values([30, 10, 20])
        s, perm = algebra.sort(b)
        assert s.decoded() == [10, 20, 30]
        assert perm.decoded() == [1, 2, 0]

    def test_sort_descending(self):
        s, _ = algebra.sort(BAT.from_values([1, 3, 2]), descending=True)
        assert s.decoded() == [3, 2, 1]

    def test_sort_is_stable(self):
        b = BAT.from_values([2, 1, 2, 1])
        _, perm = algebra.sort(b)
        assert perm.decoded() == [1, 3, 0, 2]

    def test_sort_strings(self):
        s, _ = algebra.sort(BAT.from_values(["pear", "fig", "apple"]))
        assert s.decoded() == ["apple", "fig", "pear"]

    def test_group_basic(self):
        b = BAT.from_values([5, 3, 5, 3, 5])
        gids, extents, hist = algebra.group(b)
        assert len(set(gids.decoded())) == 2
        assert sorted(hist.decoded()) == [2, 3]
        # All members of one group share a gid.
        g = gids.decoded()
        assert g[0] == g[2] == g[4]
        assert g[1] == g[3]

    def test_group_refinement(self):
        a = BAT.from_values([1, 1, 2, 2])
        b = BAT.from_values([9, 8, 9, 9])
        gids_a, _, _ = algebra.group(a)
        gids, _, hist = algebra.group(b, groups=gids_a)
        assert len(hist) == 3  # (1,9), (1,8), (2,9)
        assert sorted(hist.decoded()) == [1, 1, 2]

    def test_group_refinement_by_a_real_column(self):
        """A 4-byte float key refines like a double one (it once could
        not be read as 64-bit integers)."""
        a = BAT.from_values([1, 1, 2, 2])
        gids_a, _, _ = algebra.group(a)
        for dtype in (np.float32, np.float64):
            f = np.array([1.5, np.nan, 1.5, 1.5], dtype=dtype)
            gids, _, hist = algebra.group_arrays(f, gids_a.tail)
            assert gids.tolist() == [0, 1, 2, 2]
            assert hist.tolist() == [1, 1, 2]

    def test_group_strings(self):
        b = BAT.from_values(["x", "y", "x"])
        gids, _, hist = algebra.group(b)
        assert gids.decoded()[0] == gids.decoded()[2]
        assert sorted(hist.decoded()) == [1, 2]

    def test_unique(self):
        b = BAT.from_values([4, 4, 2, 4, 2])
        assert algebra.unique(b).decoded() == [0, 2]


class TestAggregates:
    def test_scalar_aggregates(self):
        b = BAT.from_values([3, 1, 2])
        assert algebra.aggr_count(b) == 3
        assert algebra.aggr_sum(b) == 6
        assert algebra.aggr_min(b) == 1
        assert algebra.aggr_max(b) == 3
        assert algebra.aggr_avg(b) == 2.0

    def test_aggregates_skip_nil(self):
        b = BAT(INT, [1, INT.nil, 3])
        assert algebra.aggr_count(b) == 2
        assert algebra.aggr_sum(b) == 4

    def test_empty_aggregates(self):
        b = BAT.from_values([])
        assert algebra.aggr_count(b) == 0
        assert algebra.aggr_sum(b) is None
        assert algebra.aggr_min(b) is None
        assert algebra.aggr_avg(b) is None

    def test_string_min_max(self):
        b = BAT.from_values(["pear", "fig"])
        assert algebra.aggr_min(b) == "fig"
        assert algebra.aggr_max(b) == "pear"

    def test_grouped_aggregates(self):
        values = BAT.from_values([10, 20, 30, 40])
        gids = BAT.from_values([0, 1, 0, 1])
        from repro.core.bat import BAT as B
        s = algebra.grouped_sum(values, gids, 2)
        assert s.decoded() == [40, 60]
        c = algebra.grouped_count(values, gids, 2)
        assert c.decoded() == [2, 2]
        assert algebra.grouped_min(values, gids, 2).decoded() == [10, 20]
        assert algebra.grouped_max(values, gids, 2).decoded() == [30, 40]
        assert algebra.grouped_avg(values, gids, 2).decoded() == [20.0, 30.0]

    def test_grouped_sum_floats(self):
        values = BAT.from_values([1.5, 2.5])
        gids = BAT.from_values([0, 0])
        assert algebra.grouped_sum(values, gids, 1).decoded() == [4.0]


class TestCalc:
    def test_arithmetic(self):
        a = BAT.from_values([1, 2])
        b = BAT.from_values([10, 20])
        assert algebra.calc("+", a, b).decoded() == [11, 22]
        assert algebra.calc("*", a, 3).decoded() == [3, 6]
        assert algebra.calc("-", 10, a).decoded() == [9, 8]

    def test_division_yields_double(self):
        a = BAT.from_values([1, 2])
        out = algebra.calc("/", a, 2)
        assert out.atom is DBL
        assert out.decoded() == [0.5, 1.0]

    def test_comparison_yields_bit(self):
        a = BAT.from_values([1, 5, 3])
        out = algebra.calc(">", a, 2)
        assert out.atom is BIT
        assert out.decoded() == [False, True, True]

    def test_logic_and_not(self):
        t = BAT(BIT, [True, True, False])
        u = BAT(BIT, [True, False, False])
        assert algebra.calc("and", t, u).decoded() == [True, False, False]
        assert algebra.calc("or", t, u).decoded() == [True, True, False]
        assert algebra.calc_not(t).decoded() == [False, False, True]

    def test_string_comparison(self):
        s = BAT.from_values(["ann", "bob"])
        out = algebra.calc("==", s, "bob")
        assert out.decoded() == [False, True]

    def test_unknown_operator(self):
        with pytest.raises(KeyError):
            algebra.calc("**", BAT.from_values([1]), 2)

    def test_arithmetic_over_nil_is_nil(self):
        v = BAT(LNG, [4, LNG.nil])
        i = BAT(INT, [5, INT.nil])
        assert algebra.calc("*", v, 2).tail.tolist() == [8, LNG.nil]
        assert algebra.calc("-", v, 1).tail.tolist() == [3, LNG.nil]
        assert algebra.calc("+", i, 1).tail.tolist() == [6, LNG.nil]
        assert algebra.calc("+", v, i).tail.tolist() == [9, LNG.nil]
        assert np.isnan(algebra.calc("+", i, 0.5).tail[1])

    @pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
    def test_comparison_with_nil_is_false(self, op):
        for bat, other in ((BAT(LNG, [4, LNG.nil]), 4),
                           (BAT(DBL, [4.0, np.nan]), 4.0),
                           (BAT.from_values(["a", None]), "a")):
            assert algebra.calc(op, bat, other).decoded()[1] is False

    def test_nil_string_comparison_does_not_raise(self):
        s = BAT.from_values(["a", None, "c"])
        assert algebra.calc("<", s, "b").decoded() == [True, False, False]

    def test_ifthenelse(self):
        cond = BAT(BIT, [True, False])
        a = BAT.from_values([1, 1])
        b = BAT.from_values([2, 2])
        assert algebra.ifthenelse(cond, a, b).decoded() == [1, 2]


# ---------------------------------------------------------------------------
# property-based validation against reference implementations
# ---------------------------------------------------------------------------

small_ints = st.integers(min_value=-50, max_value=50)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_ints, max_size=30), st.lists(small_ints, max_size=30))
def test_property_join_matches_nested_loop(lvals, rvals):
    l = BAT.from_values(lvals, atom=LNG)
    r = BAT.from_values(rvals, atom=LNG)
    lc, rc = algebra.join(l, r)
    ref_lc, ref_rc = algebra.nested_loop_join(l, r)
    assert (sorted(zip(lc.decoded(), rc.decoded()))
            == sorted(zip(ref_lc.decoded(), ref_rc.decoded())))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_ints, max_size=50), small_ints, small_ints)
def test_property_select_range_matches_python(values, lo, hi):
    b = BAT.from_values(values, atom=LNG)
    cand = algebra.select_range(b, lo=lo, hi=hi)
    expected = [i for i, v in enumerate(values) if lo <= v < hi]
    assert cand.decoded() == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(small_ints, max_size=50))
def test_property_sort_is_permutation_and_sorted(values):
    b = BAT.from_values(values, atom=LNG)
    s, perm = algebra.sort(b)
    assert sorted(values) == s.decoded()
    assert sorted(perm.decoded()) == list(range(len(values)))


@settings(max_examples=40, deadline=None)
@given(st.lists(small_ints, max_size=50))
def test_property_group_partition(values):
    b = BAT.from_values(values, atom=LNG)
    gids, extents, hist = algebra.group(b)
    assert sum(hist.decoded()) == len(values)
    # Rows share a gid exactly when they share a value.
    g = gids.decoded()
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert (g[i] == g[j]) == (values[i] == values[j])


@settings(max_examples=40, deadline=None)
@given(st.lists(small_ints, min_size=1, max_size=50))
def test_property_grouped_sum_consistent_with_total(values):
    b = BAT.from_values(values, atom=LNG)
    gids, _, hist = algebra.group(b)
    sums = algebra.grouped_sum(b, gids, len(hist))
    assert sum(sums.decoded()) == sum(values)


# ---------------------------------------------------------------------------
# run-time operator choice: each alternative against the path it replaces
# ---------------------------------------------------------------------------

def _decoded_nil_none(bat):
    nil = algebra.calc_isnil(bat).tail
    return [None if is_nil else v for v, is_nil in zip(bat.decoded(), nil)]


def comparator_sort_multi(*keys_and_flags):
    """Reference ORDER BY: a Python comparator over decoded values with
    nil as None (first ascending, last descending), ties broken by
    input position.  ``algebra.sort_multi`` must agree bit for bit."""
    keys = keys_and_flags[0::2]
    flags = [bool(f) for f in keys_and_flags[1::2]]
    decoded = [_decoded_nil_none(k) for k in keys]
    n = len(decoded[0])

    def compare(i, j):
        for values, ascending in zip(decoded, flags):
            a, b = values[i], values[j]
            if a == b:
                continue
            if a is None:
                outcome = -1
            elif b is None:
                outcome = 1
            else:
                outcome = -1 if a < b else 1
            return outcome if ascending else -outcome
        return -1 if i < j else (0 if i == j else 1)  # stability

    return sorted(range(n), key=functools.cmp_to_key(compare))


# Small domains so that ties (within and across keys) are common.
_SORT_DOMAINS = {
    "lng": (LNG, st.one_of(st.none(), st.integers(-3, 3), st.sampled_from(
        [int(LNG.nil) + 1, int(np.iinfo(np.int64).max)]))),
    "int": (INT, st.one_of(st.none(), st.integers(-3, 3))),
    "dbl": (DBL, st.one_of(st.none(), st.sampled_from(
        [-2.5, -0.0, 0.0, 1.5, float("inf"), float("-inf")]))),
    "str": (STR, st.one_of(st.none(), st.sampled_from(
        ["", "a", "ab", "b", "é"]))),
    "bit": (BIT, st.booleans()),
}


def _key_bat(atom, values):
    if atom is STR:
        return BAT.from_values(values, atom=STR)
    return BAT(atom, [atom.nil if v is None else v for v in values])


@st.composite
def sort_arguments(draw):
    n = draw(st.integers(0, 25))
    kinds = draw(st.lists(st.sampled_from(sorted(_SORT_DOMAINS)),
                          min_size=1, max_size=3))
    args = []
    for kind in kinds:
        atom, values = _SORT_DOMAINS[kind]
        args.append(_key_bat(atom, draw(st.lists(values, min_size=n,
                                                 max_size=n))))
        args.append(draw(st.booleans()))
    return args


@settings(max_examples=200, deadline=None)
@given(sort_arguments())
def test_property_lexsort_matches_comparator(args):
    got = algebra.sort_multi(*args).tail
    assert got.dtype == np.int64
    assert got.tolist() == comparator_sort_multi(*args)


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)


_int_dtypes = st.sampled_from([np.int8, np.int32, np.int64])


def _int_arrays(values, min_size=0):
    return st.tuples(st.lists(values, min_size=min_size, max_size=40),
                     _int_dtypes).map(lambda p: np.asarray(p[0], p[1]))


def _with_nil(atom, values):
    return st.lists(st.one_of(st.none(), values), max_size=30).map(
        lambda vs: np.asarray([atom.nil if v is None else v for v in vs],
                              dtype=atom.dtype))


@settings(max_examples=100, deadline=None)
@given(_int_arrays(st.integers(-60, 60), min_size=1))
def test_property_dense_group_matches_unique(values):
    # Called directly, whatever the span: short lists over a +-60
    # domain are the sparse case the span test would turn away.
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    _assert_same_arrays(algebra._group_dense(values, lo, span),
                        algebra._group_sorted(values))


@settings(max_examples=100, deadline=None)
@given(st.one_of(_int_arrays(st.integers(-60, 60)),
                 st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=40).map(
                     lambda vs: np.asarray(vs, dtype=np.int64)),
                 _with_nil(INT, st.integers(-5, 5)),
                 _with_nil(LNG, st.integers(-5, 5))))
def test_property_group_choice_matches_unique(values):
    _assert_same_arrays(algebra.group_arrays(values),
                        algebra._group_sorted(values))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), st.sampled_from(["x", "yy", "z"])),
                max_size=30))
def test_property_string_group_matches_unique(values):
    bat = BAT.from_values(values, atom=STR)
    gids, extents, hist = algebra.group(bat)
    _assert_same_arrays((gids.tail, extents.tail, hist.tail),
                        algebra._group_sorted(bat.tail))


_probe_values = st.one_of(st.integers(-40, 40), st.just(int(LNG.nil)))


@settings(max_examples=100, deadline=None)
@given(st.lists(_probe_values, max_size=40),
       st.lists(st.integers(-40, 40), min_size=1, max_size=30, unique=True),
       _int_dtypes)
def test_property_dense_join_matches_sort_merge(left, right, rdtype):
    ltail = np.asarray(left, dtype=np.int64)
    rtail = np.asarray(right, dtype=rdtype)
    lo = int(rtail.min())
    span = int(rtail.max()) - lo + 1
    dense = algebra._join_positions_dense(ltail, rtail, lo, span)
    assert dense is not None
    _assert_same_arrays(dense, algebra._join_positions_sorted(ltail, rtail))


@settings(max_examples=100, deadline=None)
@given(st.lists(_probe_values, max_size=40),
       st.lists(st.integers(-40, 40), min_size=1, max_size=30))
def test_property_join_choice_matches_sort_merge(left, right):
    # Duplicate build keys are common here; they must fall back.
    ltail = np.asarray(left, dtype=np.int64)
    rtail = np.asarray(right, dtype=np.int64)
    if len(set(right)) < len(right):
        lo = int(rtail.min())
        span = int(rtail.max()) - lo + 1
        assert algebra._join_positions_dense(ltail, rtail, lo, span) is None
    _assert_same_arrays(algebra._join_positions_fixed(ltail, rtail),
                        algebra._join_positions_sorted(ltail, rtail))


class TestOperatorChoiceBoundaries:
    """Inputs at or past the dense paths' limits take the fallback and
    still give the fallback's answer."""

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        real = getattr(algebra, name)

        def wrapper(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(algebra, name, wrapper)
        return calls

    def check_group(self, monkeypatch, values, dense):
        dense_calls = self.spy(monkeypatch, "_group_dense")
        got = algebra.group_arrays(values)
        assert bool(dense_calls) == dense
        _assert_same_arrays(got, algebra._group_sorted(values))

    def test_group_span_at_limit_is_dense(self, monkeypatch):
        self.check_group(monkeypatch, np.array([0, 3], dtype=np.int64),
                         dense=True)

    def test_group_span_just_over_limit_falls_back(self, monkeypatch):
        self.check_group(monkeypatch, np.array([0, 4], dtype=np.int64),
                         dense=False)

    def test_group_nil_sentinel_falls_back(self, monkeypatch):
        values = np.array([1, INT.nil, 2, 1], dtype=np.int32)
        self.check_group(monkeypatch, values, dense=False)

    def test_group_float_and_bool_fall_back(self, monkeypatch):
        for values in (np.array([1.0, 2.0, 1.0]),
                       np.array([True, False, True])):
            self.check_group(monkeypatch, values, dense=False)

    def test_group_refinement_sorts(self, monkeypatch):
        dense_calls = self.spy(monkeypatch, "_group_dense")
        gids = np.array([0, 0, 1, 1], dtype=np.int64)
        values = np.array([9, 8, 9, 9], dtype=np.int64)
        _, _, hist = algebra.group_arrays(values, gids)
        assert not dense_calls
        assert hist.tolist() == [1, 1, 2]

    def check_join(self, monkeypatch, ltail, rtail, dense):
        sorted_calls = self.spy(monkeypatch, "_join_positions_sorted")
        got = algebra._join_positions_fixed(ltail, rtail)
        assert bool(sorted_calls) != dense
        _assert_same_arrays(got, algebra._join_positions_sorted(ltail, rtail))

    def test_join_key_build_side_is_dense(self, monkeypatch):
        self.check_join(monkeypatch, np.array([3, 0, 7, 3]),
                        np.array([3, 0, 1, 2]), dense=True)

    def test_join_span_just_over_limit_falls_back(self, monkeypatch):
        self.check_join(monkeypatch, np.array([3, 0, 4, 3]),
                        np.array([4, 0]), dense=False)

    def test_join_non_unique_build_side_falls_back(self, monkeypatch):
        self.check_join(monkeypatch, np.array([1, 2, 1]),
                        np.array([1, 1, 2]), dense=False)

    def test_join_nil_in_build_side_falls_back(self, monkeypatch):
        self.check_join(monkeypatch, np.array([1, 2], dtype=np.int32),
                        np.array([2, INT.nil, 1], dtype=np.int32),
                        dense=False)

    def test_join_float_or_bool_falls_back(self, monkeypatch):
        self.check_join(monkeypatch, np.array([1.0, 2.0]),
                        np.array([2.0, 1.0]), dense=False)
        self.check_join(monkeypatch, np.array([1, 2]),
                        np.array([2.0, 1.0]), dense=False)
        self.check_join(monkeypatch, np.array([True, False]),
                        np.array([1, 0]), dense=False)
