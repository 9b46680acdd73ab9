"""Catalog and table storage: columns as BATs, deltas, deleted positions.

Section 3.2: "The relational front-end decomposes tables by column, in
BATs with a dense (non-stored) TID head, and a tail column with values.
For each table, a BAT with deleted positions is kept.  Delta BATs are
designed to delay updates to the main columns, and allow a relatively
cheap snapshot isolation mechanism (only the delta BATs are copied)."

Concretely, each column is one append-only BAT whose prefix of
``base_count`` rows is the merged *main* column and whose suffix is the
insert delta.  The deleted-positions BAT is kept twice over, both
updated in place by every write: a ``visible`` bool mask with one byte
per physical row, and an append-only log of deleted oids in delete
order.  With rows deleted, ``sql.tid`` is built from the mask once per
table version.  Appends only ever extend columns and deletes only ever
extend the log, so a snapshot is fully described by a row count and a
log length — the cheap-snapshot property the paper claims (measured in
experiment E14) — and the log's tail past a snapshot is exactly what
commit validation checks a writer's deletes against.  A vacuum
renumbers oids and restarts the log; ``vacuum_version`` records when.
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


def candidate_list(oids):
    """``oids`` (ascending, distinct) as a read-only candidate BAT."""
    oids.flags.writeable = False
    return BAT(OID, oids, tsorted=True, tkey=True)


def _with_room(buffer, used, count):
    """``buffer`` when it has room for ``count`` items, else a new one,
    at least twice as large and filled with ones, holding its first
    ``used`` items: grown by doubling, an append-only buffer is copied
    rarely instead of on every write."""
    if count <= len(buffer):
        return buffer
    grown = np.ones(max(2 * len(buffer), count), dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


def join_mapping(fk_values, pk_values, visible):
    """Per fk value, the oid of the last pk row whose ``visible`` bit
    is set and whose value is equal (keys are expected unique;
    duplicates keep one), -1 for none: a join index's mapping."""
    pk_list = pk_values.tolist()
    lookup = {pk_list[oid]: oid for oid in np.flatnonzero(visible).tolist()}
    return np.asarray([lookup.get(value, -1) for value in fk_values.tolist()],
                      dtype=np.int64)


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
        self.version = 0
        self._reset_deleted(0)
        self._tid = (None, None)    # (version, BAT)
        # The version of the latest vacuum (merge_deltas, load_columns):
        # it renumbers oids and restarts the delete log, so no older
        # snapshot's log length means anything any more.
        self.vacuum_version = 0
        self._crackers = {}

    def _reset_deleted(self, count):
        """Every one of ``count`` rows visible, none deleted.  ``_mask``
        and ``_log`` have spare capacity that appends and deletes take
        (the mask's all set); ``_visible`` is the mask's first
        ``physical_count`` bits, ``_dead`` the log's used prefix (the
        deleted oids in delete order)."""
        self._mask = self._visible = np.ones(count, dtype=bool)
        self._log = self._dead = np.empty(0, dtype=np.int64)

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
        return self.physical_count - len(self._dead)

    @property
    def visible(self):
        """One bool per physical row, False at a deleted one.  Writes
        update it in place; readers must not write it."""
        return self._visible

    @property
    def deleted_oids(self):
        """The deleted oids in delete order: an append-only log, so a
        snapshot is its length.  Readers must not write it."""
        return self._dead

    @property
    def deleted(self):
        """The deleted oids as a set (a copy, for cold callers)."""
        return set(self._dead.tolist())

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

    def tid(self):
        """Visible row oids as a read-only candidate list (``sql.tid``).

        With rows deleted it is built once per table version and shared
        by every caller until the next write.  With none it is a fresh
        ``arange``: holding one per table measured more peak memory and
        slower appends than building it per call, and no faster reads.
        """
        if not len(self._dead):
            return candidate_list(np.arange(self.physical_count,
                                            dtype=np.int64))
        version, bat = self._tid
        if version != self.version:
            bat = candidate_list(np.flatnonzero(self._visible))
            self._tid = (self.version, bat)
        return bat

    def row(self, oid):
        """Decoded values of one visible row (testing/debugging aid)."""
        if not 0 <= oid < self.physical_count or not self._visible[oid]:
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
        count = first + len(rows)
        self._mask = _with_room(self._mask, first, count)
        self._visible = self._mask[:count]
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

    def fresh_oids(self, oids):
        """The distinct oids of ``oids`` that are stored and visible,
        ascending: the rows :meth:`delete_oids` would delete."""
        if not isinstance(oids, np.ndarray):
            oids = np.fromiter(oids, dtype=np.int64)
        oids = np.sort(oids.astype(np.int64, copy=False))
        oids = oids[(oids >= 0) & (oids < self.physical_count)]
        oids = oids[self._visible[oids]]
        if len(oids) > 1:   # drop repeats (np.unique would import numpy.ma)
            oids = oids[np.concatenate(([True], oids[1:] != oids[:-1]))]
        return oids

    def delete_oids(self, oids):
        """Mark rows deleted (the deleted-positions BAT of Section 3.2);
        returns how many were stored and visible.  Out-of-range and
        already-deleted oids are ignored."""
        fresh = self.fresh_oids(oids)
        if len(fresh):
            self._visible[fresh] = False
            used = len(self._dead)
            self._log = _with_room(self._log, used, used + len(fresh))
            self._log[used:used + len(fresh)] = fresh
            self._dead = self._log[:used + len(fresh)]
            listed = fresh.tolist()
            for cracker in self._crackers.values():
                cracker.delete(listed)
            self.version += 1
        return len(fresh)

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
            if len(self._dead):
                cracker.delete(self._dead.tolist())
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
        self._reset_deleted(len(keep))
        self._tid = (None, None)
        self.base_count = len(keep)
        self._crackers = {}  # oids were renumbered: rebuild lazily
        self.version += 1
        self.vacuum_version = self.version

    def load_columns(self, columns, deleted, base_count):
        """Install stored state (a loaded database's): ``columns`` maps
        each column name to its BAT, ``deleted`` lists deleted oids."""
        self.columns = {name: columns[name] for name in self.column_names}
        self._reset_deleted(self.physical_count)
        self._log = self._dead = self.fresh_oids(deleted)
        self._visible[self._dead] = False
        self.base_count = base_count
        self._crackers = {}
        self.version += 1
        self.vacuum_version = self.version

    def __repr__(self):
        return "Table({0!r}, {1} rows visible, {2} delta, {3} deleted)".format(
            self.name, self.visible_count, self.delta_count,
            len(self._dead))


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

    def visible(self, table):
        """The table's visibility mask: position ``p`` is set iff ``p``
        is in :meth:`tid` (the compiled selects' dense path)."""
        return self.get(table).visible

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
        bat = BAT(OID, join_mapping(fk.bind(fk_column).tail,
                                    pk.bind(pk_column).tail, pk.visible))
        self._join_cache[key] = (fk.version, pk.version, bat)
        return bat
