"""Scatter-gather planning for hash-partitioned SELECTs.

The coordinator never executes relational operators itself; it rewrites
the SELECT into per-shard SELECTs (each shard runs the full single-node
engine on its fragment) plus a merge recipe.  Three plan kinds:

``single``
    The query provably touches one shard — the table set is all
    reference (unpartitioned, broadcast) tables, only one shard exists,
    or a ``key = literal`` conjunct prunes the hash map to one bucket.
    The *original* AST ships unchanged, so a one-shard database is
    bit-identical to the single-node engine.

``scatter``
    Every shard runs a rewritten SELECT; the coordinator merges.  The
    split and the merge are the ones the morsel engine uses
    (:mod:`repro.sql.partials`): plain projections concatenate (with
    hidden order-key columns so ORDER BY can be re-established after
    the nondeterministic interleave); aggregates are decomposed into
    per-shard partials — COUNT/SUM/MIN/MAX ship as-is, AVG ships as
    SUM+COUNT — recombined group-by-group at the coordinator, where
    HAVING / ORDER BY / LIMIT / DISTINCT then apply.

``gather``
    The undecomposable remainder (DISTINCT aggregates, non-co-
    partitioned joins, expressions the decomposer cannot split, shapes
    the single-node compiler rejects): ship every referenced fragment
    to a scratch single-node database and run the original AST there.
    Always correct, never fast — the measured price of a bad
    partitioning key (experiment E21).
"""

from dataclasses import dataclass, field

from repro.sql.ast import BinOp, Column, Literal, split_conjuncts
from repro.sql.partials import Undecomposable, split_select


class ShardPlanError(Exception):
    """The statement cannot be planned against this shard schema."""


@dataclass
class TableInfo:
    """Coordinator-side table metadata (the routing catalog)."""

    name: str
    columns: list              # [(column name, type name)]
    partition_by: str = None   # None: reference table, broadcast

    @property
    def column_names(self):
        return [c for c, _ in self.columns]

    @property
    def key_index(self):
        return self.column_names.index(self.partition_by)


class ShardSchema:
    """The coordinator's registry of table layouts."""

    def __init__(self):
        self.tables = {}

    def register(self, name, columns, partition_by=None):
        if name in self.tables:
            raise ShardPlanError("table {0!r} already exists".format(name))
        self.tables[name] = TableInfo(name, [tuple(c) for c in columns],
                                      partition_by)
        return self.tables[name]

    def get(self, name):
        try:
            return self.tables[name]
        except KeyError:
            raise ShardPlanError("unknown table {0!r}".format(name)) \
                from None

    def __contains__(self, name):
        return name in self.tables


@dataclass
class ScatterPlan:
    """One planned distributed SELECT (see the module docstring)."""

    kind: str                  # 'single' | 'scatter' | 'gather'
    shards: list               # target shard ids, ascending
    select: object             # the original AST
    tables: list = field(default_factory=list)        # referenced TableInfo
    pruned: bool = False       # a key-equality conjunct cut the fan-out
    shard_select: object = None
    merge: object = None       # scatter: the partials.SplitPlan


# -- predicate analysis --------------------------------------------------------

def _resolve(column, bindings):
    """(binding, TableInfo) a Column refers to, or None if ambiguous."""
    if column.table is not None:
        for binding, info in bindings:
            if binding == column.table:
                return (binding, info)
        return None
    owners = [(b, i) for b, i in bindings
              if column.name in i.column_names]
    return owners[0] if len(owners) == 1 else None


def _is_partition_key(column, bindings):
    resolved = _resolve(column, bindings)
    if resolved is None:
        return False
    _, info = resolved
    return info.partition_by == column.name


def _prune_value(where, bindings):
    """The literal a ``partition_key = literal`` conjunct pins, if any."""
    if where is None:
        return (False, None)
    for conj in split_conjuncts(where):
        if not (isinstance(conj, BinOp) and conj.op == "="):
            continue
        for col, lit in ((conj.left, conj.right), (conj.right, conj.left)):
            if isinstance(col, Column) and isinstance(lit, Literal) \
                    and _is_partition_key(col, bindings):
                return (True, lit.value)
    return (False, None)


def _co_partitioned(select, bindings):
    """True when every partitioned table is transitively joined to the
    others by an equality of their partition keys — the condition for
    shard-local joins."""
    partitioned = [b for b, info in bindings if info.partition_by]
    if len(partitioned) <= 1:
        return True
    linked = {partitioned[0]}
    pairs = []
    for join in select.joins:
        for conj in split_conjuncts(join.condition):
            if not (isinstance(conj, BinOp) and conj.op == "="):
                continue
            left, right = conj.left, conj.right
            if isinstance(left, Column) and isinstance(right, Column) \
                    and _is_partition_key(left, bindings) \
                    and _is_partition_key(right, bindings):
                lb = _resolve(left, bindings)[0]
                rb = _resolve(right, bindings)[0]
                if lb != rb:
                    pairs.append((lb, rb))
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            if (a in linked) != (b in linked):
                linked.update((a, b))
                changed = True
    return set(partitioned) <= linked


# -- the planner ----------------------------------------------------------------

def plan_select(schema, select, shard_map):
    """Plan one SELECT against ``schema`` over ``shard_map``'s active
    shards (the owners of at least one hash bucket — during an online
    migration the joining target and any retired node stay out of every
    plan until the cutover installs the next map epoch)."""
    active = shard_map.active
    if select.table is None:
        # Table-less SELECT (constant expressions): any one shard.
        return ScatterPlan("single", [active[0]], select)
    bindings = [(select.table.binding, schema.get(select.table.name))]
    for join in select.joins:
        bindings.append((join.table.binding, schema.get(join.table.name)))
    infos = [info for _, info in bindings]
    partitioned = [info for info in infos if info.partition_by]
    if not partitioned or len(active) == 1:
        # Reference tables are broadcast: any shard holds them whole.
        return ScatterPlan("single", [active[0]], select, tables=infos)
    pruned, value = _prune_value(select.where, bindings)
    if pruned:
        shard = shard_map.shard_of(value)
        return ScatterPlan("single", [shard], select, tables=infos,
                           pruned=True)
    shards = list(active)
    if not _co_partitioned(select, bindings):
        return ScatterPlan("gather", shards, select, tables=infos)
    try:
        shard_select, merge = split_select(
            select, [(b, info.column_names) for b, info in bindings])
    except Undecomposable:
        return ScatterPlan("gather", shards, select, tables=infos)
    return ScatterPlan("scatter", shards, select, tables=infos,
                       shard_select=shard_select, merge=merge)
