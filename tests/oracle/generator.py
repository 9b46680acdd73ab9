"""Seeded random schema/data/query generator for differential testing.

The schema and data are drawn from ``random.Random(seed)``; each
generated case (query, DML script, predicate) draws from its own
``random.Random(seed + case_id)`` when the caller passes ``case_id``,
so a failing case reproduces *standalone* — you can regenerate query
#5 of seed 12 without replaying queries #0-#4 first.  Omitting
``case_id`` keeps the legacy single-stream behaviour.

The generated space is deliberately constrained to stay
*discriminating without being flaky*:

* BIGINT columns with small values — no int32 overflow divergence
  between numpy and Python arithmetic.
* DOUBLE values are multiples of 0.25 (dyadic rationals): sums are
  exact in float64 and therefore independent of summation order, so
  parallel partial aggregation cannot drift from serial.
* No NULLs (engines differ legitimately on nil propagation corners),
  no division (avoids 0-divisor and int/float coercion corners), no
  LIMIT without ORDER BY (any row subset would be "correct").
* Aggregates appear as bare calls, which keeps the generated shapes
  within what every engine and the reference agree on; arithmetic over
  aggregates is covered by ``tests/sql/test_engine_parity.py``.
* Column names are globally unique so unqualified references are never
  ambiguous; join queries qualify everything anyway.
"""

import contextlib
import random

TYPES = ("BIGINT", "DOUBLE", "VARCHAR(8)")
STRING_POOL = ["v{0}".format(i) for i in range(8)]

# The historical DML statement mix (insert, update, update, delete):
# changing these defaults would shift the rng.choice stream and break
# every pinned case, so callers wanting a different mix pass
# ``gen_dml_script(weights=...)`` instead.
DEFAULT_DML_WEIGHTS = {"insert": 1, "update": 2, "delete": 1}


class TableSpec:
    def __init__(self, name, columns, rows):
        self.name = name
        self.columns = columns  # [(name, sql_type)]
        self.rows = rows        # [tuple of python values]

    @property
    def column_names(self):
        return [name for name, _ in self.columns]

    def columns_of_type(self, *prefixes):
        return [name for name, sql_type in self.columns
                if sql_type.startswith(prefixes)]

    def create_sql(self, partition_key=None):
        cols = ", ".join("{0} {1}".format(n, t) for n, t in self.columns)
        suffix = "" if partition_key is None \
            else " PARTITION BY ({0})".format(partition_key)
        return "CREATE TABLE {0} ({1}){2}".format(self.name, cols, suffix)

    def insert_sql(self):
        rows = ", ".join(
            "({0})".format(", ".join(_sql_literal(v) for v in row))
            for row in self.rows)
        return "INSERT INTO {0} VALUES {1}".format(self.name, rows)


def _sql_literal(value):
    if isinstance(value, str):
        return "'{0}'".format(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class QueryGenerator:
    """Generates one schema and a stream of queries against it."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        self._name_counter = 0
        self.tables = self._gen_schema()

    @contextlib.contextmanager
    def _case(self, case_id):
        """Draw the enclosed generation from ``Random(seed + case_id)``
        so the case reproduces standalone; ``None`` keeps the shared
        stream."""
        if case_id is None:
            yield
            return
        saved = self.rng
        self.rng = random.Random(self.seed + case_id)
        try:
            yield
        finally:
            self.rng = saved

    # -- schema and data -----------------------------------------------------

    def _fresh(self, prefix):
        self._name_counter += 1
        return "{0}{1}".format(prefix, self._name_counter)

    def _gen_schema(self):
        tables = []
        for _ in range(self.rng.randint(2, 3)):
            name = self._fresh("tab")
            # First column is always a small-domain BIGINT join key.
            columns = [(self._fresh("k"), "BIGINT")]
            for _ in range(self.rng.randint(2, 4)):
                columns.append((self._fresh("c"), self.rng.choice(TYPES)))
            n_rows = self.rng.randint(10, 80)
            rows = [tuple(self._gen_value(t, key=(i == 0))
                          for i, (_, t) in enumerate(columns))
                    for _ in range(n_rows)]
            tables.append(TableSpec(name, columns, rows))
        return tables

    def _gen_value(self, sql_type, key=False):
        if sql_type == "BIGINT":
            if key:
                return self.rng.randint(0, 12)  # dense: joins produce hits
            return self.rng.randint(-50, 50)
        if sql_type == "DOUBLE":
            return self.rng.randint(-100, 100) * 0.25
        return self.rng.choice(STRING_POOL)

    def setup_statements(self):
        out = []
        for table in self.tables:
            out.append(table.create_sql())
            if table.rows:
                out.append(table.insert_sql())
        return out

    def reference_tables(self):
        return {t.name: (t.column_names, t.rows) for t in self.tables}

    # -- transactional DML scripts -------------------------------------------

    def gen_dml_script(self, case_id=None, weights=None):
        """A short transactional script of INSERT/UPDATE/DELETE
        statements.

        The first statement is always an INSERT so the script's commit
        record is never empty (a crash-sweep run relies on the
        ``wal.append`` site being hit).  Deletes always carry a WHERE
        clause so a script cannot wipe a table and starve later ones.

        ``weights`` maps ``insert``/``update``/``delete`` to integer
        draw weights, skewing the statement mix (e.g. retraction-heavy
        histories for view-maintenance oracles).  The default weights
        rebuild exactly the historical draw population, so the RNG
        stream — and every previously pinned case — is unchanged.
        """
        with self._case(case_id):
            return self._gen_dml_script(weights)

    def _gen_dml_script(self, weights=None):
        merged = dict(DEFAULT_DML_WEIGHTS)
        if weights:
            unknown = set(weights) - set(merged)
            if unknown:
                raise ValueError(
                    "unknown DML kinds {0}".format(sorted(unknown)))
            merged.update(weights)
        population = [kind for kind in ("insert", "update", "delete")
                      for _ in range(merged[kind])]
        if not population:
            raise ValueError("DML weights sum to zero")
        script = [self._gen_insert(self._pick_table())]
        for _ in range(self.rng.randint(1, 3)):
            kind = self.rng.choice(population)
            table = self._pick_table()
            if kind == "insert":
                script.append(self._gen_insert(table))
            elif kind == "update":
                script.append(self._gen_update(table))
            else:
                script.append(self._gen_delete(table))
        return script

    def _gen_insert(self, table):
        rows = [tuple(self._gen_value(t, key=(i == 0))
                      for i, (_, t) in enumerate(table.columns))
                for _ in range(self.rng.randint(1, 3))]
        values = ", ".join(
            "({0})".format(", ".join(_sql_literal(v) for v in row))
            for row in rows)
        return "INSERT INTO {0} VALUES {1}".format(table.name, values)

    def _gen_update(self, table):
        numeric = table.columns_of_type("BIGINT", "DOUBLE")
        strings = table.columns_of_type("VARCHAR")
        if numeric and (not strings or self.rng.random() < 0.7):
            column = self.rng.choice(numeric)
            if self.rng.random() < 0.5:
                # Arithmetic on dyadic rationals stays exact.
                assignment = "{0} = {0} + {1}".format(
                    column, self.rng.randint(1, 5))
            else:
                value = self._gen_value(dict(table.columns)[column])
                assignment = "{0} = {1}".format(column,
                                                _sql_literal(value))
        else:
            assignment = "{0} = '{1}'".format(
                self.rng.choice(strings), self.rng.choice(STRING_POOL))
        return "UPDATE {0} SET {1}{2}".format(
            table.name, assignment, self._where_clause(table))

    def _gen_delete(self, table):
        where = self._where_clause(table)
        if not where:
            where = " WHERE " + self._predicate(table)
        return "DELETE FROM {0}{1}".format(table.name, where)

    # -- queries -------------------------------------------------------------

    def gen_query(self, case_id=None):
        with self._case(case_id):
            shape = self.rng.choice(
                ["project", "project", "scalar_agg", "grouped",
                 "grouped", "join_project", "join_agg", "distinct"])
            return getattr(self, "_gen_" + shape)()

    def gen_predicate(self, table, case_id=None, qualify=None):
        """A standalone predicate (the TLP harness's per-case entry)."""
        with self._case(case_id):
            return self._predicate(table, qualify)

    def _pick_table(self):
        return self.rng.choice(self.tables)

    def _where_clause(self, table, qualify=None):
        if self.rng.random() < 0.25:
            return ""
        preds = [self._predicate(table, qualify)]
        if self.rng.random() < 0.4:
            preds.append(self._predicate(table, qualify))
        glue = self.rng.choice([" AND ", " OR "])
        return " WHERE " + glue.join(preds)

    def _predicate(self, table, qualify=None):
        numeric = table.columns_of_type("BIGINT", "DOUBLE")
        strings = table.columns_of_type("VARCHAR")
        if strings and (not numeric or self.rng.random() < 0.3):
            column = self.rng.choice(strings)
            op = self.rng.choice(["=", "<>"])
            value = "'{0}'".format(self.rng.choice(STRING_POOL))
        else:
            column = self.rng.choice(numeric)
            op = self.rng.choice(["<", "<=", ">", ">=", "=", "<>"])
            value = _sql_literal(self._gen_value(
                dict(table.columns)[column]))
        if qualify:
            column = "{0}.{1}".format(qualify[column], column)
        return "{0} {1} {2}".format(column, op, value)

    def _projection_items(self, table, qualify=None):
        def q(name):
            return "{0}.{1}".format(qualify[name], name) if qualify else name

        items = []
        for _ in range(self.rng.randint(1, 3)):
            numeric = table.columns_of_type("BIGINT", "DOUBLE")
            if numeric and self.rng.random() < 0.4:
                a = q(self.rng.choice(numeric))
                kind = self.rng.random()
                if kind < 0.4 and len(numeric) > 1:
                    b = q(self.rng.choice(numeric))
                    items.append("{0} {1} {2}".format(
                        a, self.rng.choice(["+", "-"]), b))
                elif kind < 0.7:
                    items.append("{0} * {1}".format(
                        a, self.rng.randint(1, 4)))
                else:
                    items.append("{0} + {1}".format(
                        a, self.rng.randint(-5, 5)))
            else:
                items.append(q(self.rng.choice(table.column_names)))
        return ", ".join(items)

    def _maybe_order_by(self, table, qualify=None):
        if self.rng.random() < 0.7:
            return ""
        column = self.rng.choice(table.column_names)
        if qualify:
            column = "{0}.{1}".format(qualify[column], column)
        return " ORDER BY {0}{1}".format(
            column, self.rng.choice(["", " ASC", " DESC"]))

    def _gen_project(self):
        table = self._pick_table()
        return "SELECT {0} FROM {1}{2}{3}".format(
            self._projection_items(table), table.name,
            self._where_clause(table), self._maybe_order_by(table))

    def _gen_distinct(self):
        table = self._pick_table()
        columns = self.rng.sample(
            table.column_names,
            self.rng.randint(1, min(2, len(table.column_names))))
        return "SELECT DISTINCT {0} FROM {1}{2}".format(
            ", ".join(columns), table.name, self._where_clause(table))

    def _agg_calls(self, table, qualify=None):
        numeric = table.columns_of_type("BIGINT", "DOUBLE")
        calls = ["count(*)"]
        for _ in range(self.rng.randint(1, 3)):
            if not numeric:
                break
            func = self.rng.choice(["sum", "min", "max", "avg"])
            column = self.rng.choice(numeric)
            if qualify:
                column = "{0}.{1}".format(qualify[column], column)
            calls.append("{0}({1})".format(func, column))
        return ", ".join(calls)

    def _gen_scalar_agg(self):
        table = self._pick_table()
        return "SELECT {0} FROM {1}{2}".format(
            self._agg_calls(table), table.name, self._where_clause(table))

    def _gen_grouped(self):
        table = self._pick_table()
        group = self.rng.choice(table.column_names)
        having = ""
        if self.rng.random() < 0.3:
            having = " HAVING count(*) >= {0}".format(self.rng.randint(1, 3))
        return "SELECT {0}, {1} FROM {2}{3} GROUP BY {0}{4}".format(
            group, self._agg_calls(table), table.name,
            self._where_clause(table), having)

    def _join_pair(self):
        left, right = self.rng.sample(self.tables, 2)
        qualify = {}
        for name in left.column_names:
            qualify[name] = left.name
        for name in right.column_names:
            qualify[name] = right.name
        merged = TableSpec("merged", left.columns + right.columns, [])
        on = "{0}.{1} = {2}.{3}".format(
            left.name, left.column_names[0],
            right.name, right.column_names[0])
        from_sql = "{0} JOIN {1} ON {2}".format(left.name, right.name, on)
        return merged, qualify, from_sql

    def _gen_join_project(self):
        merged, qualify, from_sql = self._join_pair()
        return "SELECT {0} FROM {1}{2}".format(
            self._projection_items(merged, qualify), from_sql,
            self._where_clause(merged, qualify))

    def _gen_join_agg(self):
        merged, qualify, from_sql = self._join_pair()
        if self.rng.random() < 0.5:
            return "SELECT {0} FROM {1}{2}".format(
                self._agg_calls(merged, qualify), from_sql,
                self._where_clause(merged, qualify))
        group = self.rng.choice(merged.column_names)
        qualified = "{0}.{1}".format(qualify[group], group)
        return "SELECT {0}, {1} FROM {2}{3} GROUP BY {0}".format(
            qualified, self._agg_calls(merged, qualify), from_sql,
            self._where_clause(merged, qualify))
