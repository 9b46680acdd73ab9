"""Additional SQL engine edge cases and error paths."""

import pytest

from repro.sql import Database
from repro.sql.compiler import SQLCompileError


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE logs (host VARCHAR, code INT, ms DOUBLE)")
    d.execute("INSERT INTO logs VALUES "
              "('a', 200, 1.5), ('b', 404, 0.5), ('a', 200, 2.5), "
              "('c', 500, 9.0), ('b', 200, 0.25), ('a', 404, 4.0)")
    return d


class TestOrderBy:
    def test_multi_key_mixed_directions(self, db):
        rows = db.query("SELECT host, code FROM logs "
                        "ORDER BY host ASC, code DESC")
        assert rows == [("a", 404), ("a", 200), ("a", 200),
                        ("b", 404), ("b", 200), ("c", 500)]

    def test_order_by_expression(self, db):
        rows = db.query("SELECT host FROM logs ORDER BY ms * -1 LIMIT 2")
        assert rows == [("c",), ("a",)]

    def test_order_by_alias(self, db):
        rows = db.query("SELECT ms * 2 AS double_ms FROM logs "
                        "ORDER BY double_ms LIMIT 1")
        assert rows == [(0.5,)]

    def test_order_by_string_column(self, db):
        rows = db.query("SELECT DISTINCT host FROM logs ORDER BY host DESC")
        assert rows == [("c",), ("b",), ("a",)]

    def test_order_with_limit_applies_after_sort(self, db):
        rows = db.query("SELECT code FROM logs ORDER BY code DESC LIMIT 2")
        assert rows == [(500,), (404,)]


class TestDistinct:
    def test_multi_column_distinct(self, db):
        rows = db.query("SELECT DISTINCT host, code FROM logs "
                        "ORDER BY host, code")
        assert rows == [("a", 200), ("a", 404), ("b", 200),
                        ("b", 404), ("c", 500)]

    def test_distinct_expression(self, db):
        rows = db.query("SELECT DISTINCT code / 100 FROM logs "
                        "ORDER BY code / 100")
        assert rows == [(2.0,), (4.04,)] or len(rows) == 3


class TestGroupingEdges:
    def test_having_on_count_star(self, db):
        rows = db.query("SELECT host, count(*) FROM logs GROUP BY host "
                        "HAVING count(*) > 1 ORDER BY host")
        assert rows == [("a", 3), ("b", 2)]

    def test_having_compound(self, db):
        rows = db.query(
            "SELECT host, sum(ms) FROM logs GROUP BY host "
            "HAVING sum(ms) > 1 AND count(*) > 1 ORDER BY host")
        assert rows == [("a", 8.0)]

    def test_group_by_string(self, db):
        rows = db.query("SELECT host, min(ms) FROM logs GROUP BY host "
                        "ORDER BY host")
        assert rows == [("a", 1.5), ("b", 0.25), ("c", 9.0)]

    def test_aggregate_of_expression(self, db):
        total = db.execute(
            "SELECT sum(ms * 10) FROM logs WHERE host = 'b'").scalar()
        assert total == 7.5

    def test_group_key_used_in_expression(self, db):
        rows = db.query("SELECT code + 1, count(*) FROM logs "
                        "GROUP BY code ORDER BY code + 1")
        assert rows == [(201, 3), (405, 2), (501, 1)]

    def test_order_by_non_output_on_grouped_rejected(self, db):
        with pytest.raises(SQLCompileError):
            db.execute("SELECT code + 1, count(*) FROM logs "
                       "GROUP BY code ORDER BY ms")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("engine", ["SET compile = false",
                                    "SET compile = true",
                                    "SET workers = 2"],
                         ids=["serial", "compiled", "workers=2"])
class TestGroupedAggregatesOverNil:
    """Grouped aggregates skip nils, stay exact for integers, compare
    strings by value, and give NULL for a group with no value."""

    @pytest.fixture
    def nil_db(self, engine):
        d = Database()
        d.execute(engine)
        d.execute("CREATE TABLE t (g INT, a INT, v DOUBLE, b BIGINT, "
                  "s VARCHAR(8))")
        d.execute("INSERT INTO t VALUES "
                  "(0, 5, 1.5, 9007199254740993, 'pear'), "
                  "(0, NULL, NULL, NULL, NULL), "
                  "(0, 7, 2.5, 1, 'apple'), "
                  "(1, NULL, NULL, NULL, NULL)")
        return d

    def test_integer_column(self, nil_db, engine):
        assert nil_db.query("SELECT g, min(a), max(a), count(a), sum(a), "
                            "avg(a) FROM t GROUP BY g") == \
            [(0, 5, 7, 2, 12, 6.0), (1, None, None, 0, None, None)]

    def test_double_column(self, nil_db, engine):
        assert nil_db.query("SELECT g, min(v), max(v), count(v), sum(v) "
                            "FROM t GROUP BY g") == \
            [(0, 1.5, 2.5, 2, 4.0), (1, None, None, 0, None)]
        # Every value nil: no group has one.
        assert nil_db.query("SELECT g, sum(v), min(v) FROM t WHERE g = 1 "
                            "GROUP BY g") == [(1, None, None)]

    def test_bigint_is_exact(self, nil_db, engine):
        assert nil_db.query("SELECT g, max(b), sum(b) FROM t GROUP BY g") \
            == [(0, 2 ** 53 + 1, 2 ** 53 + 2), (1, None, None)]

    def test_varchar_column(self, nil_db, engine):
        assert nil_db.query("SELECT g, min(s), max(s), count(s) FROM t "
                            "GROUP BY g") == \
            [(0, "apple", "pear", 2), (1, None, None, 0)]


class TestErrors:
    def test_unknown_table(self, db):
        with pytest.raises(KeyError):
            db.execute("SELECT * FROM ghosts")

    def test_unknown_column(self, db):
        with pytest.raises(SQLCompileError):
            db.execute("SELECT ghost FROM logs")

    def test_insert_into_unknown_table(self, db):
        with pytest.raises(KeyError):
            db.execute("INSERT INTO ghosts VALUES (1)")

    def test_star_without_from(self, db):
        with pytest.raises(SQLCompileError):
            db.execute("SELECT *")

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(SQLCompileError):
            db.execute("SELECT host FROM logs WHERE sum(ms) > 1")

    def test_mixed_aggregate_and_row_select(self, db):
        with pytest.raises(SQLCompileError):
            db.execute("SELECT host, count(*) FROM logs")


class TestPlanReuse:
    """Plan-for-reuse (§2): optimized plans cached per statement shape."""

    def test_repeated_query_reuses_plan(self, db):
        q = "SELECT host FROM logs WHERE code = 200"
        first = db.query(q)
        assert db.plans_reused == 0
        assert db.query(q) == first
        assert db.plans_reused == 1

    def test_reused_plan_sees_fresh_data(self, db):
        q = "SELECT count(*) FROM logs WHERE code = 200"
        before = db.execute(q).scalar()
        db.execute("INSERT INTO logs VALUES ('n', 200, 1.0)")
        assert db.execute(q).scalar() == before + 1
        assert db.plans_reused >= 1

    def test_ddl_invalidates_cache(self, db):
        db.query("SELECT host FROM logs")
        assert len(db.statement_cache) == 1
        db.execute("CREATE TABLE other (x INT)")
        assert len(db.statement_cache) == 0
        db.query("SELECT host FROM logs")
        assert db.plans_reused == 0

    def test_different_text_compiles_fresh(self, db):
        db.query("SELECT host FROM logs")
        db.query("SELECT code FROM logs")
        assert db.plans_reused == 0


class TestMisc:
    def test_empty_table_queries(self):
        d = Database()
        d.execute("CREATE TABLE empty (x INT)")
        assert d.query("SELECT * FROM empty") == []
        assert d.execute("SELECT count(*) FROM empty").scalar() == 0
        assert d.query("SELECT x FROM empty ORDER BY x LIMIT 3") == []
        assert d.execute("SELECT sum(x) FROM empty").scalar() is None

    def test_where_on_double_column(self, db):
        rows = db.query("SELECT host FROM logs WHERE ms >= 2.5 "
                        "ORDER BY host")
        assert rows == [("a",), ("a",), ("c",)]

    def test_projection_only_query_keeps_row_count(self, db):
        assert len(db.query("SELECT 1 FROM logs")) == 6

    def test_three_way_join(self):
        d = Database()
        d.execute("CREATE TABLE a (x INT)")
        d.execute("CREATE TABLE b (x INT, y INT)")
        d.execute("CREATE TABLE c (y INT, label VARCHAR)")
        d.execute("INSERT INTO a VALUES (1), (2)")
        d.execute("INSERT INTO b VALUES (1, 10), (2, 20), (3, 30)")
        d.execute("INSERT INTO c VALUES (10, 'ten'), (20, 'twenty')")
        rows = d.query(
            "SELECT a.x, c.label FROM a JOIN b ON a.x = b.x "
            "JOIN c ON b.y = c.y ORDER BY a.x")
        assert rows == [(1, "ten"), (2, "twenty")]

    def test_update_everything(self, db):
        assert db.execute("UPDATE logs SET code = 0") == 6
        assert db.query("SELECT DISTINCT code FROM logs") == [(0,)]

    def test_negative_literals_in_where(self, db):
        db.execute("INSERT INTO logs VALUES ('z', -5, 0.0)")
        assert db.query("SELECT host FROM logs WHERE code < 0") == [("z",)]

    def test_constant_expression_broadcasts_over_rows(self, db):
        """A compiled-to-scalar item (unary minus folds to a constant)
        next to real columns broadcasts to the row count instead of
        raising 'mixed scalar/column result'."""
        rows = db.query("SELECT -5, host FROM logs WHERE code = 200")
        assert len(rows) == 3
        assert all(row[0] == -5 for row in rows)

    def test_update_to_negative_constant(self, db):
        assert db.execute("UPDATE logs SET code = -1 "
                          "WHERE host = 'a'") == 3
        assert db.query("SELECT count(*) FROM logs "
                        "WHERE code = -1") == [(3,)]
