"""Repo-level pytest configuration.

``--update-golden`` regenerates the checked-in normalized span trees
used by the golden-trace regression suite
(``tests/observability/test_golden.py``) after an intentional change
to the traced plan shapes::

    PYTHONPATH=src python -m pytest tests/observability/test_golden.py \
        --update-golden

Hypothesis runs under the ``tier1`` profile by default: derandomized
and without an example database, so the same tree draws the same
examples on every run and two runs give the same verdict.  The seeded
CI bands pass ``--hypothesis-profile=explore`` to draw fresh examples
instead.
"""

try:
    from hypothesis import settings
except ImportError:  # some CI jobs run without Hypothesis
    settings = None

if settings is not None:
    settings.register_profile("tier1", derandomize=True, database=None)
    settings.register_profile("explore", database=None)
    settings.load_profile("tier1")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite golden span-tree files instead of comparing")
