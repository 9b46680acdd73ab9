"""A checksummed, framed write-ahead log for logical commit records.

The delta-BAT design (Section 3.2) makes a commit a pure function of
its logical content — rows appended and oids deleted per table — so
the WAL stores exactly that: one JSON payload per record, framed as::

    | length: 4 bytes LE | crc32: 4 bytes LE | payload bytes |

Records are appended *before* the catalog is touched (write-ahead
rule), so any crash point leaves the log in one of two states: the
record fully framed (the commit is durable and recovery replays it) or
cut off mid-frame (a *torn tail*: recovery verifies length and
checksum, discards the tail, and the commit never happened).  There is
no third state, which is what makes commit atomic under
crash-at-any-site (swept exhaustively in the tests).

The medium is an in-memory buffer by default, or a file when ``path``
is given; both go through the same ``wal.append`` injection site so
torn writes are simulated identically.
"""

import json
import struct
import zlib

from repro.faults import NO_FAULTS

_HEADER = struct.Struct("<II")


class WalCorruptionError(Exception):
    """A *complete* WAL frame failed its checksum mid-log.

    A torn tail (an append cut short by a crash) is always an
    incomplete final frame, because torn writes are prefixes of valid
    frames — recovery silently discards it.  A full-length frame whose
    payload fails CRC is something else entirely: media corruption of
    a record that was once durable.  Replay stops at the first such
    frame and surfaces this error rather than silently dropping the
    record (and everything after it, which may still be intact).

    Attributes
    ----------
    lsn:
        Byte offset of the corrupt frame (the LSN ``append`` returned
        for it).
    index:
        0-based ordinal of the corrupt record in the log.
    records:
        The intact record prefix before the corruption (populated by
        :meth:`WriteAheadLog.recover`; None from raw iteration).
    """

    def __init__(self, lsn, index, records=None):
        self.lsn = lsn
        self.index = index
        self.records = records
        super().__init__(
            "WAL corruption: record {0} (LSN {1}) failed its "
            "checksum".format(index, lsn))


class WriteAheadLog:
    """Append-only log of checksummed logical records.

    Parameters
    ----------
    path:
        File to persist frames to; None keeps the log in memory (the
        default — crash simulation only needs a medium that survives
        the simulated process, which the buffer does).
    faults:
        A :class:`~repro.faults.FaultInjector`; appends pass through
        the ``wal.append`` site, where a crash plan (optionally with
        ``torn=k``) cuts the write short.
    """

    def __init__(self, path=None, faults=None):
        from repro.observability.tracer import NO_TRACE
        self.path = path
        self.faults = faults if faults is not None else NO_FAULTS
        self.tracer = NO_TRACE  # session tracer (set by Database)
        self._buffer = bytearray()
        self.records_appended = 0
        self.torn_bytes_discarded = 0
        self.stall_units = 0
        self.last_crc = self.last_size = None
        if path is not None:
            try:
                with open(path, "rb") as handle:
                    self._buffer = bytearray(handle.read())
            except FileNotFoundError:
                pass

    # -- geometry -------------------------------------------------------------

    @property
    def size_bytes(self):
        return len(self._buffer)

    def __len__(self):
        return sum(1 for _ in self.records())

    # -- writes ---------------------------------------------------------------

    def append(self, record):
        """Frame, checksum and append one logical record (a JSON-able
        dict); returns the record's byte offset (its LSN).

        A crash injected at ``wal.append`` strikes *before* the frame
        is durable; with ``torn=k`` on the crash plan, the first ``k``
        bytes of the frame still reach the medium — the torn tail that
        recovery must discard.
        """
        payload = json.dumps(record, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        crc = zlib.crc32(payload)
        frame = _HEADER.pack(len(payload), crc) + payload
        lsn = len(self._buffer)
        from repro.faults import CrashError
        try:
            self.stall_units += self.faults.inject("wal.append",
                                                   size=len(frame))
        except CrashError as crash:
            torn = crash.torn
            if torn:
                self._write(frame[:min(torn, len(frame))])
            raise
        self._write(frame)
        # The frame's checksum and length, kept so a caller that needs
        # them (the replicated log) does not encode the record again.
        self.last_crc, self.last_size = crc, len(frame)
        self.records_appended += 1
        if self.tracer.enabled:
            self.tracer.add("wal_bytes", len(frame))
        return lsn

    def _write(self, data):
        self._buffer.extend(data)
        if self.path is not None:
            with open(self.path, "ab") as handle:
                handle.write(data)

    # -- reads ----------------------------------------------------------------

    def _frames(self):
        """(record, end offset) for every complete frame, in order.

        Stops at the first *incomplete* frame — by the write-ahead
        framing, anything from that point on is the torn tail of an
        interrupted append.  A frame that is fully present but fails
        its checksum is not a torn tail (torn writes are prefixes of
        valid frames): that is mid-log corruption, and it raises
        :class:`WalCorruptionError` instead of silently fencing the
        record and everything behind it.
        """
        return self.records_from(0)

    def records_from(self, pos=0):
        """Yield ``(record, end offset)`` for every complete frame at
        or after byte offset ``pos``.

        ``pos`` must lie on a frame boundary — an LSN returned by
        :meth:`append`, an ``end`` from a prior scan, or 0.  This is
        the WAL-tailing primitive: a reader remembers the last ``end``
        it consumed and resumes there, paying only for the suffix.
        The ``index`` on a raised :class:`WalCorruptionError` counts
        records from ``pos``, not from the start of the log.
        """
        data = bytes(self._buffer)
        index = 0
        while pos + _HEADER.size <= len(data):
            length, crc = _HEADER.unpack_from(data, pos)
            start = pos + _HEADER.size
            end = start + length
            if end > len(data):
                break
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                raise WalCorruptionError(pos, index)
            yield json.loads(payload.decode("utf-8")), end
            pos = end
            index += 1

    def records(self):
        """Yield every *complete* record in append order.  Raises
        :class:`WalCorruptionError` at a mid-log checksum failure."""
        for record, _ in self._frames():
            yield record

    def recover(self):
        """Complete records as a list, repairing the log in passing:
        the torn tail (if any) is truncated so later appends start on a
        clean frame boundary.

        A mid-log checksum failure stops replay at the corrupt frame
        and raises :class:`WalCorruptionError` with the record prefix
        recovered so far on its ``records`` attribute — the caller
        decides whether to fence the log there or refuse to start.
        """
        records = []
        pos = 0
        try:
            for record, end in self._frames():
                records.append(record)
                pos = end
        except WalCorruptionError as corruption:
            corruption.records = records
            raise
        torn = len(self._buffer) - pos
        if torn:
            self.torn_bytes_discarded += torn
            del self._buffer[pos:]
            if self.path is not None:
                with open(self.path, "wb") as handle:
                    handle.write(bytes(self._buffer))
        return records

    def truncate(self):
        """Drop every record (after a checkpoint merges them)."""
        self._buffer = bytearray()
        if self.path is not None:
            with open(self.path, "wb") as handle:
                handle.write(b"")

    def __repr__(self):
        return "WriteAheadLog({0} records, {1} bytes)".format(
            self.records_appended, self.size_bytes)
