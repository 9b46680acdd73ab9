"""The replicated log: term/LSN-stamped WAL records with per-LSN
checksums.

Replication ships the same logical commit records the single-node WAL
already frames (:mod:`repro.wal`), with two extra keys stamped into
each record before it is framed:

* ``lsn`` — the record's 0-based sequence number in the replicated
  stream (dense: entry *i* of the log has LSN *i*);
* ``term`` — the election epoch of the primary that appended it.

Because the stamp is part of the framed payload, the frame's CRC *is*
the per-LSN checksum: two nodes agree on an LSN exactly when the
crc32 of the canonical JSON matches.  Divergence detection and the
fencing protocol (truncate a deposed primary's unacked tail) are both
checksum comparisons over these entries.  Each entry keeps the
checksum and the frame size (what shipping it costs) from the WAL's one
encode of its record, so nothing encodes a record again to ship or
compare it.
"""

from repro.faults import NO_FAULTS
from repro.wal import WriteAheadLog


class LogEntry:
    """One replicated record: (lsn, term, checksum, size, record) —
    ``checksum`` the crc32 of its canonical framed payload, ``size``
    its frame's bytes."""

    __slots__ = ("lsn", "term", "checksum", "size", "record")

    def __init__(self, lsn, term, checksum, size, record):
        self.lsn = lsn
        self.term = term
        self.checksum = checksum
        self.size = size
        self.record = record

    def __repr__(self):
        return "LogEntry(lsn={0}, term={1}, crc={2:#010x})".format(
            self.lsn, self.term, self.checksum)


class NotPrimaryError(RuntimeError):
    """A write reached a log whose node is not the current primary.

    This is the fencing backstop: a deposed primary's log is sealed
    (its stamp is revoked at failover), so any straggler write raises
    here instead of silently appending to a divergent tail.
    """


class ReplicatedLog(WriteAheadLog):
    """A :class:`~repro.wal.WriteAheadLog` that stamps and indexes
    replication metadata.

    On the primary, ``stamp`` is a callable returning the next
    ``(term, lsn)`` pair and every appended record is stamped before
    framing.  On replicas ``stamp`` is None and records arrive
    pre-stamped from the leader; an *unstamped* append on a stampless
    log raises :class:`NotPrimaryError` — the log is fenced.

    ``entries[i]`` always holds LSN ``i`` (the list is dense), and an
    entry is registered only after its frame is durable, so a crash
    torn mid-append never leaves a phantom entry to ship.
    """

    def __init__(self, path=None, faults=None):
        super().__init__(path, faults)
        self.entries = []
        self.stamp = None     # callable -> (term, lsn); None = fenced

    # -- appends ---------------------------------------------------------------

    def append(self, record):
        if "lsn" not in record:
            if self.stamp is None:
                raise NotPrimaryError(
                    "log is fenced: this node is not the primary")
            term, lsn = self.stamp()
            record = dict(record, term=term, lsn=lsn)
        lsn = record["lsn"]
        if lsn != len(self.entries):
            raise ValueError(
                "non-contiguous append: LSN {0} onto a log of "
                "{1} entries".format(lsn, len(self.entries)))
        offset = super().append(record)  # crash here -> no entry
        self.entries.append(LogEntry(lsn, record["term"], self.last_crc,
                                     self.last_size, record))
        return offset

    # -- geometry --------------------------------------------------------------

    @property
    def last_lsn(self):
        """LSN of the newest entry (-1 on an empty log)."""
        return len(self.entries) - 1

    @property
    def last_term(self):
        return self.entries[-1].term if self.entries else 0

    def entry_at(self, lsn):
        """The entry with the given LSN, or None when out of range."""
        if 0 <= lsn < len(self.entries):
            return self.entries[lsn]
        return None

    def checksum_at(self, lsn):
        entry = self.entry_at(lsn)
        return entry.checksum if entry is not None else None

    # -- fencing ---------------------------------------------------------------

    def truncate_from(self, lsn):
        """Fence the log at ``lsn``: drop every entry with LSN >= lsn
        and rewrite the framed medium to the surviving prefix.

        This is the rejoin path of a deposed primary — its unacked
        tail loses to the new leader's log.  Returns the number of
        entries dropped.  The rewrite bypasses fault injection (it is
        local recovery, not a new commit) and never re-ships.
        """
        if lsn > len(self.entries):
            return 0
        kept = self.entries[:max(lsn, 0)]
        dropped = len(self.entries) - len(kept)
        if not dropped:
            return 0
        self.entries = []
        saved_faults, self.faults = self.faults, NO_FAULTS
        saved_stamp, self.stamp = self.stamp, None
        try:
            self.truncate()
            for entry in kept:
                self.append(entry.record)
        finally:
            self.faults = saved_faults
            self.stamp = saved_stamp
        return dropped

    def __repr__(self):
        return "ReplicatedLog({0} entries, last term {1})".format(
            len(self.entries), self.last_term)
