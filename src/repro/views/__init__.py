"""Incrementally maintained materialized views (``repro.views``).

``CREATE MATERIALIZED VIEW v AS SELECT ...`` installs a view whose
backing table is kept consistent with its base tables by folding each
committed DML batch — distilled into a weighted Z-set delta — through
the view's operator, instead of recomputing the defining query.  The
machinery rides the database's single publish path, so views stay
maintained across recovery, replication, 2PC and resharding without
any code of their own in those layers.

Modules:

* :mod:`repro.views.zset` — weighted row multisets, the delta currency
* :mod:`repro.views.rows` — sentinel<->None decoding and the
  compiler turning view expressions into functions of row tuples
* :mod:`repro.views.definition` — classification of defining queries
  into linear / aggregate / join / eager maintenance strategies
* :mod:`repro.views.maintainer` — the per-database maintainer and the
  operator implementations
"""

from repro.views.definition import OutputItem, ViewDefinition, classify
from repro.views.maintainer import ViewMaintainer, ViewMaintenanceError
from repro.views.rows import (
    ViewError, decode_row, decode_value, logical_rows,
)
from repro.views.zset import ZSet, row_key

__all__ = [
    "OutputItem",
    "ViewDefinition",
    "ViewError",
    "ViewMaintainer",
    "ViewMaintenanceError",
    "ZSet",
    "classify",
    "decode_row",
    "decode_value",
    "logical_rows",
    "row_key",
]
