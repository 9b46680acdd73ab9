"""Atom types: the fixed-width value domains BAT tails are made of.

MonetDB calls its base types *atoms*.  Fixed-width atoms map directly onto
numpy dtypes; the variable-width ``str`` atom is stored as fixed-width
offsets into a :class:`repro.core.heap.StringHeap`.  Missing values use
MonetDB-style in-domain *nil* sentinels (the smallest value of the domain)
rather than out-of-band null bitmaps.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Atom:
    """Descriptor of one atom type.

    Attributes
    ----------
    name:
        MonetDB-style type name (``oid``, ``int``, ``str``, ...).
    dtype:
        The numpy dtype of the in-memory array (for ``str``: the dtype of
        the offset array).
    nil:
        The in-domain sentinel representing a missing value.
    varsized:
        True when the tail needs a companion heap (only ``str``).
    """

    name: str
    dtype: np.dtype
    nil: object
    varsized: bool = False

    @property
    def width(self):
        """Bytes per tail entry (offset width for var-sized atoms)."""
        return np.dtype(self.dtype).itemsize

    def array(self, values):
        """Coerce ``values`` into a tail array of this atom type."""
        return np.asarray(values, dtype=self.dtype)

    def empty(self, count=0):
        return np.empty(count, dtype=self.dtype)

    def is_nil(self, values):
        """Element-wise nil test (works for scalars and arrays)."""
        if self.nil != self.nil:   # NaN, the one value unequal to itself
            return np.isnan(values)
        return np.equal(values, self.nil)

    def __repr__(self):
        return ":" + self.name


OID = Atom("oid", np.dtype(np.int64), nil=-1)
BIT = Atom("bit", np.dtype(np.bool_), nil=False)
BTE = Atom("bte", np.dtype(np.int8), nil=np.iinfo(np.int8).min)
SHT = Atom("sht", np.dtype(np.int16), nil=np.iinfo(np.int16).min)
INT = Atom("int", np.dtype(np.int32), nil=np.iinfo(np.int32).min)
LNG = Atom("lng", np.dtype(np.int64), nil=np.iinfo(np.int64).min)
FLT = Atom("flt", np.dtype(np.float32), nil=float("nan"))
DBL = Atom("dbl", np.dtype(np.float64), nil=float("nan"))
STR = Atom("str", np.dtype(np.int64), nil=-1, varsized=True)

_ATOMS = {a.name: a for a in (OID, BIT, BTE, SHT, INT, LNG, FLT, DBL, STR)}

# SQL-ish aliases accepted by front-ends.
_ALIASES = {
    "integer": INT,
    "int32": INT,
    "bigint": LNG,
    "int64": LNG,
    "smallint": SHT,
    "tinyint": BTE,
    "boolean": BIT,
    "bool": BIT,
    "real": FLT,
    "float": DBL,
    "double": DBL,
    "varchar": STR,
    "text": STR,
    "string": STR,
}


def atom_by_name(name):
    """Resolve an atom by its MonetDB name or a SQL alias."""
    key = name.lower().strip()
    if key in _ATOMS:
        return _ATOMS[key]
    if key in _ALIASES:
        return _ALIASES[key]
    raise KeyError("unknown atom type {0!r}".format(name))


def atom_for_dtype(dtype):
    """Best-effort mapping from a numpy dtype to an atom."""
    dtype = np.dtype(dtype)
    for atom in (LNG, INT, SHT, BTE, DBL, FLT, BIT):
        if atom.dtype == dtype:
            return atom
    raise KeyError("no atom for dtype {0!r}".format(dtype))


def nil_value(atom):
    """The nil sentinel of an atom (module-level convenience)."""
    return atom.nil
