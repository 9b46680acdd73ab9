"""Layered wall-clock benchmark: SQL text in -> rows out, on every backend.

Six seeded, closed-loop, single-client workloads (see ``workloads/``),
an untraced run for the end-to-end metrics and a probed run for the
per-layer ones.  ``README.md`` beside this file is the manual;
``BENCHMARK.json`` at the repository root is the contract.
"""
