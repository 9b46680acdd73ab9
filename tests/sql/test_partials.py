"""Weighted partial states (``repro.sql.partials.PartialState``).

A materialized aggregate view folds every committed delta into one
state per partial; a delta is just one more part with weights +1/-1.
So a weighted history folded whole must agree with the same history
cut into pieces, each folded from empty, whose states then merge — in
any order.  Count and sum agree exactly, down to an emptied history
(count 0, sum None).  An extremum cannot subtract: a state either holds
the exact extremum or is marked stale, and a refold over the values
left answers it.
"""

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.sql import ResultSet
from repro.sql.partials import (
    FOLD, Partial, PartialState, SplitPlan, merge_aggregates, value_bat,
)

KINDS = ("count", "sum", "min", "max")


def fold(kind, history):
    """One state folded from empty; nil values are skipped, as a view
    skips a nil aggregate argument."""
    state = PartialState(kind)
    for value, weight in history:
        if value is not None:
            FOLD[kind](state, value, weight)
    return state


def expected(kind, history):
    """The aggregate of the values the history leaves, or None."""
    net = Counter()
    for value, weight in history:
        if value is not None:
            net[value] += weight
    assert all(count >= 0 for count in net.values())
    values = list(net.elements())
    if kind == "count":
        return len(values), values
    if not values:
        return None, values
    total = {"sum": sum, "min": min, "max": max}[kind]
    return total(values), values


def answer(state, values):
    """The state's value, refolded from the values left when stale."""
    if state.stale:
        state.refold(values)
    return state.final()


@st.composite
def histories(draw):
    """A weighted history that never retracts a value it does not hold:
    inserts of small (possibly nil) values and retractions of present
    ones, with weights of one or two copies."""
    held = Counter()
    history = []
    for step in draw(st.lists(st.tuples(st.booleans(),
                                        st.integers(-3, 3) | st.none(),
                                        st.integers(1, 2)),
                              max_size=24)):
        retract, value, copies = step
        present = sorted((v for v in held if held[v]), key=repr)
        if retract and present:
            value = present[draw(st.integers(0, len(present) - 1))]
            copies = min(copies, held[value])
            held[value] -= copies
            history.append((value, -copies))
        else:
            held[value] += copies
            history.append((value, copies))
    return history


@st.composite
def split_histories(draw):
    """A history, its cut into consecutive pieces, and a merge order."""
    history = draw(histories())
    cuts = sorted(draw(st.lists(st.integers(0, len(history)),
                                max_size=4)))
    bounds = [0] + cuts + [len(history)]
    pieces = [history[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return history, draw(st.permutations(pieces))


@given(split_histories(), st.sampled_from(KINDS))
def test_folding_whole_equals_merging_pieces(case, kind):
    history, pieces = case
    want, values = expected(kind, history)
    whole = fold(kind, history)
    merged = PartialState(kind)
    for piece in pieces:
        merged.merge(fold(kind, piece))
    for state in (whole, merged):
        assert state.n == len(values)
        if kind in ("count", "sum"):
            assert not state.stale
            assert state.final() == want
        else:
            # An extremum not marked stale is exact.
            assert answer(state, values) == want


@given(st.lists(st.lists(st.integers(-3, 3) | st.none(), max_size=6),
                max_size=4),
       st.sampled_from(KINDS))
def test_finish_merges_part_values_as_states_merge(parts, kind):
    """The finish (``merge_aggregates``) over the parts' final values,
    one 1-row part column each (what a scatter leg or a shard's view
    ships), equals the state of all parts."""
    whole = fold(kind, [(value, 1) for part in parts for value in part])
    finals = [fold(kind, [(value, 1) for value in part]).final()
              for part in parts]
    plan = SplitPlan(aggregate=True, names=["v"], n_items=1,
                     partials=[(kind, None)], item_exprs=[Partial(0)])
    merged = merge_aggregates(plan, [[value_bat([v])] for v in finals])
    assert ResultSet.from_bats(plan.names, merged).scalar() == whole.final()


def test_retraction_to_empty():
    history = [(3, 1), (4, 2), (3, -1), (4, -2)]
    assert fold("count", history).final() == 0
    assert fold("sum", history).final() is None
    for kind in ("min", "max"):
        state = fold(kind, history)
        assert state.n == 0 and state.final() is None
    # The same history in two pieces, merged.
    for kind in KINDS:
        merged = fold(kind, history[:2])
        merged.merge(fold(kind, history[2:]))
        assert merged.n == 0
        assert merged.final() == (0 if kind == "count" else None)


def test_extremum_retraction_marks_stale():
    history = [(3, 1), (5, 1), (3, -1)]
    low = fold("min", history)
    assert low.stale and low.n == 1
    assert answer(low, [5]) == 5
    high = fold("max", history)
    assert not high.stale and high.final() == 5   # 3 was not the max
    # A retraction in a piece of its own cannot see the extremum, so
    # the merged state is stale too.
    merged = fold("min", history[:2])
    merged.merge(fold("min", history[2:]))
    assert merged.stale and answer(merged, [5]) == 5
