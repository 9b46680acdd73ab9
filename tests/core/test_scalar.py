"""The shared scalar operator table: NULL propagation and zero divisors
agree with the column kernel on a one-row column."""

import math

import pytest

from repro.core import BAT, algebra
from repro.core.kernel import lookup_op
from repro.core.scalar import SCALAR_OPS

pytestmark = pytest.mark.filterwarnings("error")

BINARY = ("+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=")


@pytest.mark.parametrize("op", BINARY)
def test_null_propagates(op):
    fn = SCALAR_OPS[op]
    assert fn(None, 2) is None
    assert fn(2, None) is None
    assert fn(None, None) is None


def test_unary_and_logic_null_rules():
    assert SCALAR_OPS["not"](None) is None
    assert SCALAR_OPS["neg"](None) is None
    assert SCALAR_OPS["isnil"](None) is True
    assert SCALAR_OPS["and"](None, True) is False
    assert SCALAR_OPS["or"](None, True) is True


def test_sql_spellings_share_the_comparisons():
    assert SCALAR_OPS["="] is SCALAR_OPS["=="]
    assert SCALAR_OPS["<>"] is SCALAR_OPS["!="]


@pytest.mark.parametrize("op", ["/", "%"])
@pytest.mark.parametrize("left", [7, -7, 0, 7.5, -7.5, 0.0])
@pytest.mark.parametrize("zero", [0, 0.0])
def test_zero_divisor_matches_the_column_kernel(op, left, zero):
    got = SCALAR_OPS[op](left, zero)
    want = algebra.calc(op, BAT.from_values([left]), zero).decoded()[0]
    assert type(got) is type(want)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_calc_kernels_are_the_table():
    for op in BINARY + ("and", "or", "not", "isnil"):
        assert lookup_op("calc." + op).fn is SCALAR_OPS[op]
