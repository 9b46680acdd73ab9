"""Weighted row multisets (Z-sets) — the delta currency of view
maintenance.

A Z-set maps rows to integer weights: +w means "w copies arrive", -w
means "w copies retract".  A committed DML batch distills into one
Z-set per table (appends weigh +1 each, deletes -1; an UPDATE is a -1
retraction plus a +1 insertion), and the maintenance operators in
:mod:`repro.views.maintainer` consume these batches — linear operators
apply them directly (L(A+B) = L(A)+L(B)), aggregates fold them into
per-group partial states (:class:`~repro.sql.partials.PartialState`).

Rows live in *logical* (None-based) value space here: the engine's
in-domain nil sentinels are decoded to None before a row enters a
Z-set (:func:`repro.views.rows.decode_row`), so weights merge by value
identity — including NaN, which would otherwise never equal itself.
"""


def row_key(row):
    """Hashable identity of a logical row: type-tagged so ``1`` /
    ``1.0`` / ``True`` stay distinct and NaN equals itself."""
    return tuple(_tag(value) for value in row)


def _tag(value):
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, float):
        if value != value:
            return ("nan",)
        return ("float", value)
    if isinstance(value, int):
        return ("int", value)
    return ("str", value)


class ZSet:
    """A row -> weight mapping; zero-weight rows vanish on the fly."""

    def __init__(self):
        self._entries = {}  # row_key -> [row, weight]

    def add(self, row, weight=1):
        row = tuple(row)
        key = row_key(row)
        entry = self._entries.get(key)
        if entry is None:
            if weight:
                self._entries[key] = [row, weight]
            return
        entry[1] += weight
        if entry[1] == 0:
            del self._entries[key]

    def items(self):
        """(row, weight) pairs, weight never zero."""
        return [(row, weight) for row, weight in self._entries.values()]

    def __len__(self):
        return len(self._entries)

    def __bool__(self):
        return bool(self._entries)

    def __repr__(self):
        return "ZSet({0} distinct rows)".format(len(self._entries))
