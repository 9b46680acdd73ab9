"""Coordinator-side merge of scatter results.

The shard fragments arrive as decoded row tuples; everything here is
plain Python over small merged states (group keys, partial aggregates),
mirroring the single-node engine's semantics — None is the decoded nil,
aggregates of nothing are None (COUNT: 0), sorts put nil (None or NaN)
first ascending and last descending, HAVING treats None as false.
Floating-point recombination is exact for the dyadic-rational data the
test generators emit; arbitrary doubles may see the usual
re-association jitter, which the comparison helpers normalize away.
"""

from repro.core.algebra import order_rows
from repro.sql.ast import BinOp, IsNull, Literal, UnaryOp
from repro.sharding.planner import AvgOf, GroupCol, Partial


class MergeError(Exception):
    """A merge recipe met a value shape it cannot combine."""


# -- partial combination ------------------------------------------------------

def combine_partials(kind, values):
    """Fold one partial aggregate's per-shard values into the total."""
    if kind == "count":
        return sum(v for v in values if v is not None)
    present = [v for v in values if v is not None]
    if not present:
        return None
    if kind == "sum":
        return sum(present)
    if kind == "min":
        return min(present)
    if kind == "max":
        return max(present)
    raise MergeError("unknown partial kind {0!r}".format(kind))


# -- merge-expression evaluation ----------------------------------------------

def eval_merge(expr, group, combined):
    """Evaluate a merge tree for one merged group.

    ``group`` is the group-key tuple, ``combined`` the recombined
    partial values.
    """
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, GroupCol):
        return group[expr.index]
    if isinstance(expr, Partial):
        return combined[expr.index]
    if isinstance(expr, AvgOf):
        count = combined[expr.count_index]
        if not count:
            return None
        return combined[expr.sum_index] / count
    if isinstance(expr, BinOp):
        if expr.op == "and":
            return _truthy(eval_merge(expr.left, group, combined)) and \
                _truthy(eval_merge(expr.right, group, combined))
        if expr.op == "or":
            return _truthy(eval_merge(expr.left, group, combined)) or \
                _truthy(eval_merge(expr.right, group, combined))
        return _binop(expr.op, eval_merge(expr.left, group, combined),
                      eval_merge(expr.right, group, combined))
    if isinstance(expr, UnaryOp):
        value = eval_merge(expr.operand, group, combined)
        if value is None:
            return None
        return -value if expr.op == "-" else not value
    if isinstance(expr, IsNull):
        return eval_merge(expr.operand, group, combined) is None
    raise MergeError("unsupported merge expression {0!r}".format(expr))


def _truthy(value):
    return bool(value) if value is not None else False


def _binop(op, left, right):
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "%":
        return left % right
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise MergeError("unknown operator {0!r}".format(op))


def _distinct(rows):
    seen = set()
    out = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


# -- the two scatter merges ----------------------------------------------------

def merge_rows(plan, shard_rows):
    """Merge a 'rows' scatter: concatenate, re-sort on the (possibly
    hidden) order-key columns, DISTINCT/LIMIT, strip hidden columns."""
    rows = [row for rows in shard_rows for row in rows]
    if plan.distinct:
        rows = _distinct(rows)
    if plan.order_columns:
        rows = order_rows(rows,
                          lambda row, i: row[plan.order_columns[i][0]],
                          [asc for _, asc in plan.order_columns])
    if plan.limit is not None:
        rows = rows[:plan.limit]
    if any(pos >= plan.n_items for pos, _ in plan.order_columns):
        rows = [row[:plan.n_items] for row in rows]
    return rows


def merge_aggregates(plan, shard_rows):
    """Merge an 'agg' scatter: recombine partials group by group, then
    apply the coordinator-held HAVING / ORDER BY / DISTINCT / LIMIT."""
    n_group = plan.n_group
    groups = {}      # group key tuple -> [per-partial value lists]
    order = []       # first-arrival group order (deterministic)
    for rows in shard_rows:
        for row in rows:
            key = tuple(row[:n_group])
            state = groups.get(key)
            if state is None:
                state = [[] for _ in plan.partial_kinds]
                groups[key] = state
                order.append(key)
            for i, value in enumerate(row[n_group:]):
                state[i].append(value)
    if not plan.select.group_by and not order:
        # Scalar aggregate over zero shards' rows still yields one row.
        order.append(())
        groups[()] = [[] for _ in plan.partial_kinds]
    out = []
    for key in order:
        combined = [combine_partials(kind, values)
                    for kind, values in zip(plan.partial_kinds,
                                            groups[key])]
        if plan.having_expr is not None and \
                not _truthy(eval_merge(plan.having_expr, key, combined)):
            continue
        row = tuple(eval_merge(e, key, combined)
                    for e in plan.item_exprs)
        out.append((row, key, combined))
    rows = [row for row, _, _ in out]
    if plan.order_exprs:
        decorated = order_rows(out,
                               lambda entry, i: eval_merge(
                                   plan.order_exprs[i][0], entry[1],
                                   entry[2]),
                               [asc for _, asc in plan.order_exprs])
        rows = [row for row, _, _ in decorated]
    if plan.distinct:
        rows = _distinct(rows)
    if plan.limit is not None:
        rows = rows[:plan.limit]
    return rows
