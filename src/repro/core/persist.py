"""BAT persistence: columns as files, loaded via memory mapping.

Section 3: "Internally, MonetDB stores columns using memory mapped
files. ... this use of arrays in virtual memory exploits the fast
in-hardware address to disk-block mapping implemented by the MMU."

A BAT serializes to ``<prefix>.tail.npy`` (plus ``<prefix>.heap`` and
``<prefix>.offsets.npy`` for var-sized atoms) and a small JSON sidecar
with the atom name and properties.  Loading uses numpy's ``mmap_mode``
so the tail array is demand-paged straight from the file — the closest
Python equivalent of the paper's design.  Appends to a loaded BAT
copy-on-write into anonymous memory (numpy concatenation), exactly like
MonetDB's delta story.
"""

import json
import os

import numpy as np

from repro.core.atoms import atom_by_name
from repro.core.bat import BAT
from repro.core.heap import StringHeap


def save_bat(bat, prefix):
    """Write a void-headed BAT to ``<prefix>.*``; returns the sidecar
    path."""
    if not bat.hdense:
        raise ValueError("only void-headed BATs persist (like MonetDB)")
    np.save(prefix + ".tail.npy", bat.tail)
    meta = {
        "atom": bat.atom.name,
        "count": len(bat),
        "hseqbase": bat.hseqbase,
    }
    if bat.atom.varsized:
        with open(prefix + ".heap", "wb") as handle:
            handle.write(bytes(bat.heap._data))
    sidecar = prefix + ".bat.json"
    with open(sidecar, "w") as handle:
        json.dump(meta, handle)
    return sidecar


def load_bat(prefix, mmap=True):
    """Load a BAT saved by :func:`save_bat`.

    With ``mmap=True`` the tail is a read-only memory map: point
    lookups page in exactly the blocks they touch.
    """
    with open(prefix + ".bat.json") as handle:
        meta = json.load(handle)
    atom = atom_by_name(meta["atom"])
    tail = np.load(prefix + ".tail.npy",
                   mmap_mode="r" if mmap else None)
    heap = None
    if atom.varsized:
        heap = StringHeap()
        with open(prefix + ".heap", "rb") as handle:
            heap._data = bytearray(handle.read())
        heap._intern = _rebuild_intern(heap._data)
    return BAT(atom, tail, hseqbase=meta["hseqbase"], heap=heap)


def _rebuild_intern(data):
    """Reconstruct the interning map from the NUL-separated heap."""
    intern = {}
    offset = 0
    while offset < len(data):
        end = data.index(b"\0", offset)
        value = data[offset:end].decode("utf-8", "surrogatepass")
        intern.setdefault(value, offset)
        offset = end + 1
    return intern


def save_database(db, directory):
    """Persist a whole Database's catalog and columns to a directory."""
    os.makedirs(directory, exist_ok=True)
    schema = {}
    for name, table in db.catalog.tables.items():
        schema[name] = {
            "columns": [(c, table.atoms[c].name)
                        for c in table.column_names],
            "deleted": sorted(table.deleted_oids.tolist()),
            "base_count": table.base_count,
        }
        for column in table.column_names:
            save_bat(table.bind(column),
                     os.path.join(directory,
                                  "{0}.{1}".format(name, column)))
    with open(os.path.join(directory, "catalog.json"), "w") as handle:
        json.dump(schema, handle, indent=2)


def load_database(directory, mmap=True):
    """Load a Database saved by :func:`save_database`."""
    from repro.sql import Database
    with open(os.path.join(directory, "catalog.json")) as handle:
        schema = json.load(handle)
    db = Database()
    for name, info in schema.items():
        table = db.catalog.create_table(
            name, [(c, t) for c, t in info["columns"]])
        columns = {column: load_bat(
            os.path.join(directory, "{0}.{1}".format(name, column)),
            mmap=mmap) for column, _ in info["columns"]}
        table.load_columns(columns, info["deleted"], info["base_count"])
    return db
