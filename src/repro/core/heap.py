"""Variable-width value heaps.

The paper (Section 3): "variable-width types are split into two arrays,
one with offsets, and the other with all concatenated data".  The
:class:`StringHeap` is the concatenated-data half; the offsets live in the
BAT tail array.  Identical strings are interned, so repeated values share
one heap entry — which is also what makes dictionary compression natural
for column stores.
"""

import numpy as np


class StringHeap:
    """Append-only heap of NUL-terminated UTF-8 strings.

    Offsets returned by :meth:`put` are stable forever; offset ``-1`` is
    the nil string.
    """

    NIL_OFFSET = -1

    def __init__(self):
        self._data = bytearray()
        self._intern = {}

    def __len__(self):
        return len(self._data)

    @property
    def nbytes(self):
        return len(self._data)

    def put(self, value):
        """Store a string, returning its heap offset (interned)."""
        if value is None:
            return self.NIL_OFFSET
        offset = self._intern.get(value)
        if offset is None:
            offset = len(self._data)
            self._data += value.encode("utf-8", "surrogatepass") + b"\0"
            self._intern[value] = offset
        return offset

    def put_many(self, values):
        """Store an iterable of strings; return an int64 offset array."""
        return np.fromiter((self.put(v) for v in values), dtype=np.int64,
                           count=len(values))

    def get(self, offset):
        """Fetch the string at ``offset`` (None for the nil offset)."""
        offset = int(offset)
        if offset == self.NIL_OFFSET:
            return None
        end = self._data.index(b"\0", offset)
        return self._data[offset:end].decode("utf-8", "surrogatepass")

    def get_many(self, offsets):
        return [self.get(o) for o in np.asarray(offsets)]

    def nbytes_of(self, offsets):
        """Bytes of the distinct strings ``offsets`` reference, each
        with its NUL (nil references none)."""
        offsets = np.asarray(offsets)
        return sum(self._data.index(b"\0", offset) - offset + 1
                   for offset in np.unique(
                       offsets[offsets != self.NIL_OFFSET]).tolist())

    def __contains__(self, value):
        return value in self._intern

    def find(self, value):
        """Offset of ``value`` if already interned, else None.

        Selections on string BATs use this: when the literal is not in the
        heap, no tuple can match, without scanning anything.
        """
        if value is None:
            return self.NIL_OFFSET
        return self._intern.get(value)

    def __repr__(self):
        return "StringHeap({0} bytes, {1} strings)".format(
            len(self._data), len(self._intern))
