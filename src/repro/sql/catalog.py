"""Catalog and table storage: columns as BATs, deltas, deleted positions.

Section 3.2: "The relational front-end decomposes tables by column, in
BATs with a dense (non-stored) TID head, and a tail column with values.
For each table, a BAT with deleted positions is kept.  Delta BATs are
designed to delay updates to the main columns, and allow a relatively
cheap snapshot isolation mechanism (only the delta BATs are copied)."

Concretely, each column is one append-only BAT whose prefix of
``base_count`` rows is the merged *main* column and whose suffix is the
insert delta; the delete delta is a set of deleted oids.  Appends only
ever extend columns, so a snapshot is fully described by a row count and
a copy of the deleted set — the cheap-snapshot property the paper claims
(measured in experiment E14).
"""

import numpy as np

from repro.core.atoms import OID, atom_by_name
from repro.core.bat import BAT


def _converted(atom, values):
    """``atom.array(values)``, or None when it refuses a value or one
    is not a scalar."""
    try:
        array = atom.array(values)
    except (TypeError, ValueError, OverflowError, RuntimeWarning):
        return None
    return array if array.shape == (len(values),) else None


class Table:
    """One relational table, vertically decomposed into BATs."""

    def __init__(self, name, columns, partition_by=None):
        """``columns``: ordered list of (column name, type name) pairs.

        ``partition_by`` records the declared hash-partition key (the
        ``PARTITION BY`` DDL clause); a single-node database stores it
        as inert metadata, the sharding layer routes by it.
        """
        self.name = name
        self.partition_by = partition_by
        self.atoms = self.column_atoms(columns, partition_by)
        self.column_names = list(self.atoms)
        self.columns = {col_name: BAT.from_values([], atom=atom)
                        for col_name, atom in self.atoms.items()}
        self.base_count = 0
        self.deleted = set()
        self.version = 0
        self.delete_log = []        # [(version after delete, frozenset oids)]
        self._delete_log_floor = 0  # snapshots older than this can't be answered
        self._crackers = {}

    @staticmethod
    def column_atoms(columns, partition_by=None):
        """``{column name: atom}`` in column order: the one check of a
        definition's columns (KeyError for an unknown type)."""
        if not columns:
            raise ValueError("a table needs at least one column")
        atoms = {}
        for col_name, type_name in columns:
            if col_name in atoms:
                raise ValueError("duplicate column {0!r}".format(col_name))
            atoms[col_name] = atom_by_name(type_name)
        if partition_by is not None and partition_by not in atoms:
            raise ValueError(
                "PARTITION BY names unknown column {0!r}".format(
                    partition_by))
        return atoms

    # -- geometry -----------------------------------------------------------

    @property
    def physical_count(self):
        """Rows stored, including deleted ones and the insert delta."""
        return len(self.columns[self.column_names[0]])

    @property
    def visible_count(self):
        return self.physical_count - len(self.deleted)

    @property
    def delta_count(self):
        """Rows in the insert delta (not yet merged into the main column)."""
        return self.physical_count - self.base_count

    def atom(self, column):
        try:
            return self.atoms[column]
        except KeyError:
            raise KeyError("table {0!r} has no column {1!r}".format(
                self.name, column)) from None

    # -- reads ---------------------------------------------------------------

    def bind(self, column):
        """The full physical column BAT (main + insert delta)."""
        if column not in self.columns:
            raise KeyError("table {0!r} has no column {1!r}".format(
                self.name, column))
        return self.columns[column]

    def tid(self, physical_count=None, deleted=None):
        """Visible row oids as a candidate list (``sql.tid``).

        ``physical_count`` and ``deleted`` let a snapshot restrict the
        view to its frozen state.
        """
        count = self.physical_count if physical_count is None \
            else physical_count
        dead = self.deleted if deleted is None else deleted
        oids = np.arange(count, dtype=np.int64)
        if dead:
            mask = np.ones(count, dtype=bool)
            dead_arr = np.fromiter((d for d in dead if d < count),
                                   dtype=np.int64)
            mask[dead_arr] = False
            oids = oids[mask]
        return BAT(OID, oids, tsorted=True, tkey=True)

    def row(self, oid):
        """Decoded values of one visible row (testing/debugging aid)."""
        if oid in self.deleted or not 0 <= oid < self.physical_count:
            raise KeyError(oid)
        return tuple(self.columns[c].tail_at(oid) for c in self.column_names)

    # -- writes ----------------------------------------------------------------

    def checked_rows(self, rows, columns=None):
        """``rows`` (in ``columns`` order, default the table's) as
        lists in table column order, every value checked by the very
        conversion :meth:`append_rows` applies: the pre-log row check."""
        by_column, _ = self._column_values(rows, columns)
        return list(map(list, zip(*by_column)))

    def append_rows(self, rows, columns=None):
        """Append full rows (in ``columns`` order, default the
        table's); returns the oids assigned.  Every column converts
        before any grows, so a rejected row leaves the table as is."""
        _, values = self._column_values(rows, columns)
        first = self.physical_count
        for name, column_values in zip(self.column_names, values):
            self.columns[name].append_values(column_values)
            cracker = self._crackers.get(name)
            if cracker is not None:
                cracker.insert(column_values)
        self.version += 1
        return list(range(first, first + len(rows)))

    def _column_values(self, rows, columns):
        """Per table column, its values as given and as
        ``append_values`` takes them (for VARCHAR the str-or-None values,
        else ``atom.array`` with None as nil).  Raises ValueError for a
        missing column, a wrong arity or the first value refused."""
        order = columns or self.column_names
        if order is not self.column_names and \
                sorted(order) != sorted(self.column_names):
            raise ValueError(
                "INSERT must provide every column of {0!r}".format(self.name))
        for row in rows:
            if len(row) != len(order):
                raise ValueError("row arity mismatch: {0!r}".format(row))
        by_position = list(zip(*rows)) or [()] * len(order)
        by_column = [by_position[order.index(c)] for c in self.column_names]
        out = []
        for name, values in zip(self.column_names, by_column):
            atom = self.atoms[name]
            if atom.varsized:
                refused = [v for v in values
                           if v is not None and not isinstance(v, str)]
            else:
                values = [atom.nil if v is None else v for v in values]
                converted = _converted(atom, values)
                refused = [] if converted is not None else [
                    v for v in values if _converted(atom, [v]) is None
                ] or [values]
                values = converted
            if refused:
                raise ValueError(
                    "cannot store {0!r} in column {1}.{2} ({3})".format(
                        refused[0], self.name, name, atom.name))
            out.append(values)
        return by_column, out

    def delete_oids(self, oids):
        """Mark rows deleted (the deleted-positions BAT of Section 3.2)."""
        fresh = {int(o) for o in oids
                 if 0 <= int(o) < self.physical_count
                 and int(o) not in self.deleted}
        self.deleted.update(fresh)
        if fresh:
            for cracker in self._crackers.values():
                cracker.delete(fresh)
            self.version += 1
            self.delete_log.append((self.version, frozenset(fresh)))
            if len(self.delete_log) > 1024:
                dropped_version, _ = self.delete_log.pop(0)
                self._delete_log_floor = dropped_version
        return len(fresh)

    def deleted_since(self, version):
        """Oids deleted by writers after snapshot ``version``, or
        ``None`` when the log cannot answer (the snapshot predates a
        vacuum or a trimmed log entry) — callers must then assume the
        worst and treat every shared row as touched."""
        if version < self._delete_log_floor:
            return None
        out = set()
        for logged_version, oids in self.delete_log:
            if logged_version > version:
                out |= oids
        return out

    def cracked_select(self, column, lo=None, hi=None, lo_incl=True,
                       hi_incl=False):
        """Candidates matching the range via a self-organizing cracker.

        The column's cracker index is created on first use ("just-in-
        time partial indexing", §6.1) and kept in sync with appends and
        deletes.  Falls back to a plain select for non-integer columns
        — which keeps the optimizer rewrite unconditionally safe.
        """
        from repro.core.algebra import select_range
        atom = self.atom(column)
        if atom.dtype.kind not in "iu" or atom.varsized:
            return select_range(self.bind(column), lo, hi, lo_incl,
                                hi_incl, candidates=self.tid())
        if lo is None:
            # An open lower bound starts above the nil (the minimum).
            lo, lo_incl = int(atom.nil), False
        cracker = self._crackers.get(column)
        if cracker is None:
            from repro.cracking import CrackedStore
            cracker = CrackedStore(self.columns[column].tail,
                                   merge_threshold=2048)
            if self.deleted:
                cracker.delete(self.deleted)
            self._crackers[column] = cracker
        oids = cracker.select_range(lo, hi, lo_incl, hi_incl)
        return BAT(OID, np.asarray(oids, dtype=np.int64), tsorted=True,
                   tkey=True)

    def cracker_stats(self, column):
        """(tuples touched, piece count) of a column's cracker, if any."""
        cracker = self._crackers.get(column)
        if cracker is None:
            return (0, 0)
        return (cracker.tuples_touched, cracker.n_pieces)

    def merge_deltas(self):
        """Physically merge deltas into the main columns.

        Rebuilds every column without the deleted rows and resets the
        deltas.  Oids are renumbered (a vacuum), so this runs only at
        quiescent points.
        """
        keep = np.asarray(self.tid().tail, dtype=np.int64)
        for name in self.column_names:
            old = self.columns[name]
            merged = old.fetch(keep)
            merged.heap = old.heap
            self.columns[name] = merged
        self.deleted = set()
        self.base_count = len(keep)
        self._crackers = {}  # oids were renumbered: rebuild lazily
        self.version += 1
        # Oids were renumbered: older snapshots can no longer be
        # validated row-by-row against the delete log.
        self.delete_log = []
        self._delete_log_floor = self.version

    def __repr__(self):
        return "Table({0!r}, {1} rows visible, {2} delta, {3} deleted)".format(
            self.name, self.visible_count, self.delta_count,
            len(self.deleted))


class Catalog:
    """The schema: named tables, plus the interpreter's catalog protocol.

    Besides tables, the catalog can hold *join indices* (§3.2:
    "MonetDB/SQL also keeps additional BATs for join indices"): for a
    declared N:1 relationship, a BAT mapping each foreign-key row to
    the matching primary-key oid (-1 for no match).  The compiler
    exploits them per §3.1 ("exploit catalogue knowledge on
    join-indices"), turning an equi-join into a positional fetch.
    Indices are rebuilt lazily when either table's version moves.
    """

    def __init__(self):
        self.tables = {}
        self._join_indices = {}   # key -> declared
        self._join_cache = {}     # key -> (fk_ver, pk_ver, BAT)

    def check_new_table(self, name, columns, partition_by=None):
        """Raise as :meth:`create_table` would, creating nothing."""
        if name in self.tables:
            raise ValueError("table {0!r} already exists".format(name))
        Table.column_atoms(columns, partition_by)

    def create_table(self, name, columns, partition_by=None):
        self.check_new_table(name, columns, partition_by)
        table = Table(name, columns, partition_by=partition_by)
        self.tables[name] = table
        return table

    def drop_table(self, name):
        del self.tables[name]

    def get(self, name):
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError("unknown table {0!r}".format(name)) from None

    def __contains__(self, name):
        return name in self.tables

    # -- the MAL interpreter protocol ------------------------------------------

    def bind(self, table, column):
        return self.get(table).bind(column)

    def count(self, table):
        return self.get(table).visible_count

    def tid(self, table):
        return self.get(table).tid()

    def table_version(self, table):
        """Version token for recycler keys: changes on every write."""
        return ("v", self.get(table).version)

    def cracked_select(self, table, column, lo, hi, lo_incl, hi_incl):
        return self.get(table).cracked_select(column, lo, hi, lo_incl,
                                              hi_incl)

    # -- join indices -----------------------------------------------------------

    def declare_join_index(self, fk_table, fk_column, pk_table,
                           pk_column):
        """Declare an N:1 join path; the mapping BAT builds lazily."""
        self.get(fk_table).atom(fk_column)
        self.get(pk_table).atom(pk_column)
        key = (fk_table, fk_column, pk_table, pk_column)
        self._join_indices[key] = True
        return key

    def has_join_index(self, fk_table, fk_column, pk_table, pk_column):
        return (fk_table, fk_column, pk_table, pk_column) \
            in self._join_indices

    def join_index(self, fk_table, fk_column, pk_table, pk_column):
        """The fk-row -> pk-oid mapping BAT (-1 marks no match).

        Rebuilt when either table's version changed; deleted pk rows
        map to -1, deleted fk rows keep a (harmless) stale slot — the
        visible-tid filtering upstream never selects them.
        """
        key = (fk_table, fk_column, pk_table, pk_column)
        if key not in self._join_indices:
            raise KeyError("no join index declared for {0}".format(key))
        fk = self.get(fk_table)
        pk = self.get(pk_table)
        cached = self._join_cache.get(key)
        if cached is not None and cached[0] == fk.version and \
                cached[1] == pk.version:
            return cached[2]
        fk_values = fk.bind(fk_column).tail
        pk_values = pk.bind(pk_column).tail
        visible = np.ones(len(pk_values), dtype=bool)
        if pk.deleted:
            visible[np.fromiter(pk.deleted, dtype=np.int64)] = False
        mapping = np.full(len(fk_values), -1, dtype=np.int64)
        lookup = {}
        for oid, value in enumerate(pk_values.tolist()):
            if visible[oid]:
                lookup[value] = oid  # last visible match wins (keys
                # are expected unique; duplicates keep one)
        for row, value in enumerate(fk_values.tolist()):
            mapping[row] = lookup.get(value, -1)
        bat = BAT(OID, mapping)
        self._join_cache[key] = (fk.version, pk.version, bat)
        return bat
