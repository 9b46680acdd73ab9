"""Shared machinery for the view-maintenance differential oracle.

Seeded view definitions are derived from the same :class:`QueryGenerator`
schemas the engine oracles replay, and the expected contents of every
view after every committed batch is a *full recomputation* of its SELECT
through the row-at-a-time reference executor.  An incremental maintainer
that drops, duplicates or mis-weights a single delta diverges from that
recomputation immediately.
"""

from repro.sql.parser import parse_sql
from tests.helpers import assert_same_rows

# Statement mix skewed toward retractions: updates and deletes are where
# weighted Z-set maintenance earns its keep (negative weights, extremum
# retraction, groups vanishing at weight zero).
RETRACTION_HEAVY = {"insert": 2, "update": 3, "delete": 2}


#: Every view shape the oracle draws; ``cross`` and ``arith`` group by
#: a column other than the first (the partition key on a sharded
#: cluster), so their groups span shards.
VIEW_KINDS = ("linear", "aggregate", "scalar", "cross", "arith", "join",
              "eager")


def view_specs(generator, case_id, kinds=VIEW_KINDS):
    """Seeded ``(name, select_sql)`` view definitions over the
    generator's schema, one per requested maintenance kind."""
    t0 = generator.tables[0]
    key = t0.column_names[0]
    nums = t0.columns_of_type("BIGINT")
    num = nums[-1] if len(nums) > 1 else key
    # Few distinct strings make the widest groups; any non-key column
    # will do.
    others = t0.columns_of_type("VARCHAR") + t0.column_names[1:]
    other = others[0]
    specs = []
    if "linear" in kinds:
        predicate = generator.gen_predicate(t0, case_id=case_id)
        specs.append(("v_lin", "SELECT {0} FROM {1} WHERE {2}".format(
            ", ".join(t0.column_names), t0.name, predicate)))
    if "aggregate" in kinds:
        specs.append((
            "v_grp",
            "SELECT {key}, count(*) AS n, sum({num}) AS s, "
            "min({num}) AS lo, max({num}) AS hi, avg({num}) AS a "
            "FROM {t} GROUP BY {key}".format(key=key, num=num,
                                             t=t0.name)))
    if "scalar" in kinds:
        specs.append(("v_tot",
                      "SELECT count(*) AS n, sum({0}) AS s "
                      "FROM {1}".format(num, t0.name)))
    if "cross" in kinds:
        specs.append((
            "v_cross",
            "SELECT {other}, count(*) AS n, sum({num}) AS s, "
            "min({num}) AS lo, max({num}) AS hi, avg({num}) AS a "
            "FROM {t} GROUP BY {other}".format(other=other, num=num,
                                               t=t0.name)))
    if "arith" in kinds:
        specs.append((
            "v_arith",
            "SELECT {other}, sum({num}) * 2 + count(*) AS x "
            "FROM {t} GROUP BY {other}".format(other=other, num=num,
                                               t=t0.name)))
    if "join" in kinds and len(generator.tables) > 1:
        t1 = generator.tables[1]
        k1 = t1.column_names[0]
        other = t1.column_names[-1]
        specs.append((
            "v_join",
            "SELECT {t0}.{key}, {t0}.{num}, {t1}.{other} FROM {t0} "
            "JOIN {t1} ON {t0}.{key} = {t1}.{k1}".format(
                t0=t0.name, t1=t1.name, key=key, num=num,
                other=other, k1=k1)))
    if "eager" in kinds:
        specs.append(("v_dis",
                      "SELECT DISTINCT {0} FROM {1}".format(key,
                                                            t0.name)))
    return specs


def create_views(executor, specs):
    for name, sql in specs:
        executor.execute("CREATE MATERIALIZED VIEW {0} AS {1}".format(
            name, sql))


def expected_contents(reference, specs):
    """name -> full recomputation of the view through the reference."""
    return {name: reference.execute(parse_sql(sql))
            for name, sql in specs}


def assert_view_contents(contents_of, reference, specs, context):
    """``contents_of(name)`` must equal the reference recomputation for
    every view, as a multiset."""
    for name, sql in specs:
        assert_same_rows(
            contents_of(name), reference.execute(parse_sql(sql)),
            context="{0} view={1} ({2})".format(context, name, sql))
