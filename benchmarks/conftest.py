"""Shared benchmark plumbing.

Every experiment writes its result table(s) to
``benchmarks/results/<experiment>.txt`` (so the series survive pytest's
output capture) and attaches the headline numbers to the
pytest-benchmark ``extra_info``.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def format_table(title, headers, rows):
    """Render an aligned text table."""
    cells = [[str(h) for h in headers]] + \
        [["{0:.4g}".format(c) if isinstance(c, float) else str(c)
          for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.rjust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


class ResultSink:
    """Collects tables for one experiment and writes them to disk."""

    def __init__(self, experiment):
        self.experiment = experiment
        self.tables = []

    def table(self, title, headers, rows):
        text = format_table(title, headers, rows)
        self.tables.append(text)
        print("\n" + text)
        return text

    def note(self, text):
        self.tables.append(text)
        print(text)

    def flush(self):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, self.experiment + ".txt")
        with open(path, "w") as handle:
            handle.write("\n\n".join(self.tables) + "\n")
        return path


@pytest.fixture
def sink(request):
    """Per-test result sink named after the test module."""
    name = request.module.__name__.replace("bench_", "")
    out = ResultSink(name)
    yield out
    out.flush()


def interpreted_database():
    """A plain Database pinned to the MAL interpreter (``SET compile =
    false``): the baseline of experiments about interpreted operators."""
    from repro.sql import Database
    db = Database()
    db.execute("SET compile = false")
    return db


def run_once(benchmark, fn):
    """Run a harness exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
