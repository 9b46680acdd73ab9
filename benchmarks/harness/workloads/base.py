"""What every workload shares: the statement record, the answer
comparison, SQL rendering of generated rows, and the engine counters.

A workload owns two things that never see each other's internals: an
engine (built through SQL text only) and a *plain-Python row model* —
``dict key -> row tuple`` per table — that the generator advances as
it emits statements.  Expected answers come from the model alone; it
shares no code with ``tests/oracle``.
"""

import collections
import os
import random
from time import perf_counter

#: One scripted statement.  ``sqls`` holds one SQL text, or the texts
#: of one whole transaction.  ``expect`` has one entry per text: a row
#: count, a list of rows, or None where the answer is checked by the
#: post-round comparison instead of inline.  ``delta_rows`` is the
#: number of base-table rows the statement adds plus removes (view
#: maintenance work).
Stmt = collections.namedtuple(
    "Stmt", "sid tag kind sqls expect delta_rows", defaults=(0,))


def literal(value):
    return repr(value) if isinstance(value, float) else str(value)


def insert_sql(table, rows):
    return "INSERT INTO {0} VALUES {1}".format(
        table, ", ".join("({0})".format(", ".join(map(literal, row)))
                         for row in rows))


def bulk_load(execute, table, rows, batch=1000):
    """Load ``rows`` through SQL text, ``batch`` rows per INSERT."""
    rows = list(rows)
    for lo in range(0, len(rows), batch):
        execute(insert_sql(table, rows[lo:lo + batch]))


def canonical(rows):
    """Rows as a sorted list of tuples, floats rounded so that two
    correct summation orders compare equal."""
    return sorted(tuple(round(v, 6) if isinstance(v, float) else v
                        for v in row) for row in rows)


def same_answer(got, want):
    """Does one statement's result match the model's expectation?
    Row lists compare as multisets; ``want is None`` is unchecked."""
    if want is None:
        return True
    if isinstance(want, list):
        return isinstance(got, list) and canonical(got) == canonical(want)
    return got == want


def fetch(result):
    """Consume a statement's result inside the timed region: SELECTs
    are materialized to row tuples, DML/DDL results pass through."""
    rows = getattr(result, "rows", None)
    return rows() if rows is not None else result


def checksum(rows, value_column):
    """The model's side of a ``count(*), sum(key), sum(value)`` check
    (the key is column 0 of every table here)."""
    return [(len(rows), sum(row[0] for row in rows),
             sum(row[value_column] for row in rows))]


def recover_from(wal_path):
    """Durability: a new ``Database`` on the WAL file alone, recovered.
    Returns ``(database, seconds taken)``."""
    from repro.sql import Database
    from repro.wal import WriteAheadLog
    start = perf_counter()
    recovered = Database(wal=WriteAheadLog(wal_path))
    recovered.recover()
    return recovered, perf_counter() - start


def database_counters(databases, compiled=False):
    """Sum the public counters of single-node ``Database`` objects."""
    out = collections.Counter()
    for db in databases:
        out["plans_reused"] += db.plans_reused
        out["instrs"] += db.interpreter.stats.instructions_executed
        out["parallel_runs"] += db.parallel_runs
        out["parallel_fallbacks"] += db.parallel_fallbacks
        if compiled:
            out.update(db.plan_compiler.counters())
        if db.wal is not None:
            out["wal_records"] += db.wal.records_appended
            out["wal_bytes"] += db.wal.size_bytes
        for counters in db.views.counters.values():
            out["view_deltas"] += counters["deltas"]
            out["view_group_recomputes"] += counters["group_recomputes"]
            out["view_eager_recomputes"] += counters["eager_recomputes"]
    return out


class Workload:
    """Base class; subclasses fill in the engine and the script."""

    name = None
    #: Why this workload exists (one line, copied into BENCHMARK.json).
    why = None
    #: Flush policy of the WAL medium, stated in the output.
    flush_policy = "no WAL file"

    #: Table sizes and statements per round, by tag.
    FULL = SMOKE = None

    def __init__(self, seed, smoke=False, workdir=None):
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.workdir = workdir
        # A string seed hashes deterministically (no PYTHONHASHSEED).
        self.rng = random.Random("{0}:{1}".format(self.name, seed))
        self._sid = 0
        self._builds = 0

    # -- script helpers -------------------------------------------------------

    def stmt(self, tag, kind, sqls, expect, delta_rows=0):
        self._sid += 1
        if isinstance(sqls, str):
            sqls, expect = (sqls,), (expect,)
        return Stmt(self._sid, tag, kind, tuple(sqls), tuple(expect),
                    delta_rows)

    @property
    def statements_issued(self):
        return self._sid

    def shuffled(self, statements):
        self.rng.shuffle(statements)
        return statements

    def shuffled_tags(self, *tags):
        """``size[tag]`` copies of each tag, in seeded order: every
        round issues exactly the same number of each statement class."""
        return self.shuffled([tag for tag in tags
                              for _ in range(self.size[tag])])

    def wal_path(self, stem):
        """A fresh, empty WAL file path per build, inside the work
        directory (``WriteAheadLog`` would adopt a file left there)."""
        self._builds += 1
        path = os.path.join(self.workdir, "{0}-{1}.wal".format(
            stem, self._builds))
        if os.path.exists(path):
            os.remove(path)
        return path

    # -- interface ------------------------------------------------------------

    def reset(self):
        """Put the row model back to the initial rows.  Every round
        starts from a fresh engine and a fresh model, so rounds are
        statistically alike however many of them a run completes."""
        raise NotImplementedError

    def build(self):
        """Create a fresh engine, load the initial rows through SQL and
        warm the caches.  Timed as one ``setup_s`` sample."""
        raise NotImplementedError

    def script(self):
        """This round's statements (and the model advanced past
        them).  Untimed."""
        raise NotImplementedError

    def execute(self, sql):
        raise NotImplementedError

    def run(self, stmt):
        """Execute one scripted statement; returns one fetched result
        per SQL text."""
        return tuple(fetch(self.execute(sql)) for sql in stmt.sqls)

    def check_round(self):
        """Compare engine state to the model after a round, outside
        the timed region: ``[(label, ok), ...]``."""
        raise NotImplementedError

    def check_durability(self):
        """For file-WAL workloads: recover a new engine from the WAL
        file alone and compare it to the model.  Returns
        ``(checks, recover_seconds)`` or None."""
        return None

    def counters(self):
        """Raw public counters of the engine, as a flat mapping."""
        raise NotImplementedError

    def extra_measurements(self):
        """Direct timings only this workload can take (traced run)."""
        return {}

    # -- check helpers --------------------------------------------------------

    def compare(self, label, query, want):
        """One post-round check: run ``query`` (a SQL text or a
        callable) and compare with the model's rows."""
        try:
            got = query() if callable(query) else fetch(self.execute(query))
        except Exception as exc:  # a check that raises has failed
            return ("{0}: {1!r}".format(label, exc), False)
        return (label, same_answer(list(got), list(want)))
