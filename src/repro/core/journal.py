"""The durability journal: checksummed JSON-lines, replayable.

A W5 provider that snapshots its whole deployment on every deploy pays
O(total state) per snapshot — the trap the M10 experiment measures.
The journal makes durability **incremental**: every durable mutation
(account lifecycle, policy grants, fs and db writes, tag creation)
appends one record here, and recovery becomes *base snapshot + replay*
instead of *latest full snapshot*.

Record format (one record per line, pure JSON)::

    {"crc": "9a2b3c4d", "data": {...}, "op": "fs.write", "seq": 17}\n

* ``seq`` is a monotone sequence number starting at 1 after each
  compaction; a gap or regression means corruption and truncates the
  journal there.
* ``crc`` is the CRC-32 (zlib, 8 hex digits) of the line bytes with
  the fixed-width ``{"crc":"xxxxxxxx",`` prefix replaced by ``{`` —
  i.e. of the record exactly as serialized, minus the checksum field
  itself.  Verification is a byte slice + crc32, never a
  re-serialization, so a flipped byte or a torn write is detected
  without trusting the line to parse at all.
* ``data`` is op-specific and must be JSON-representable; binary
  payloads are transported via :func:`encode_payload` (base64-tagged),
  and anything beyond that degrades to an ``journal.opaque`` marker
  (counted, reported at recovery) rather than poisoning the log.

**Torn-tail semantics**: :meth:`Journal.recover` reads records until
the first line that is incomplete (no trailing newline), unparseable,
checksum-mismatched, or out of sequence, *truncates there*, and
returns everything before it.  A crash mid-``append`` therefore loses
at most the record being written — never a prefix, never a suffix
re-ordering — which is what makes base+replay reproduce a full restore
byte for byte (``tests/platform/test_journal_replay.py``).

The journal is storage-agnostic: it maintains its byte image in
memory (``raw_bytes``), exactly what a real deployment would ``write``
+ ``fsync`` per record; tests crash it by slicing that image at every
offset.
"""

from __future__ import annotations

import base64
import itertools
import json
import zlib
from dataclasses import dataclass
from typing import Any, Optional

from ..errors import W5Error

__all__ = ["Journal", "JournalCursor", "JournalError", "JournalRecord",
           "ReplayReport", "encode_payload", "decode_payload"]


class JournalError(W5Error):
    """A journal invariant was violated (not a recoverable torn tail)."""


#: Byte length of the fixed-width line prefix ``{"crc":"xxxxxxxx",``.
_CRC_PREFIX_LEN = len(b'{"crc":"00000000",')


def _body(seq: int, op: str, data: dict[str, Any]) -> str:
    return json.dumps({"seq": seq, "op": op, "data": data},
                      separators=(",", ":"))


@dataclass(frozen=True)
class JournalRecord:
    """One verified durable mutation."""

    seq: int
    op: str
    data: dict[str, Any]


@dataclass(frozen=True)
class JournalCursor:
    """A resumable position in one journal's history (M15).

    Consumers that *tail* the journal — the federation delta-sync
    plane — hold one of these per (user, peer) and ask for
    :meth:`Journal.tail_from` it.  A cursor is only meaningful against
    the exact journal instance and epoch it was minted from:

    * ``journal_id`` is a process-unique instance id, so a cursor
      taken against a provider that has since been rebuilt (crash
      recovery replaces the Journal object) can never silently alias
      the new journal's sequence numbers;
    * ``epoch`` counts :meth:`Journal.reset` calls — every compaction
      or checkpoint folds the journaled history into the base
      snapshot and restarts ``seq`` at 0, so a cursor from a previous
      epoch points at history that no longer exists as records.

    ``Journal.tail_from`` returns ``None`` for a stale cursor instead
    of guessing; the consumer must fall back to a full resync (the
    federation plane's content-based reconciler) and mint a fresh
    cursor.  That is what makes cursor reattachment after provider
    failure *safe* rather than merely optimistic.
    """

    journal_id: int
    epoch: int
    seq: int


@dataclass
class ReplayReport:
    """What :meth:`Journal.recover` found in a raw journal image."""

    records: int = 0
    #: Bytes dropped from the tail (0 on a clean shutdown).
    truncated_bytes: int = 0
    #: Why the tail was truncated ("" when it was not).
    truncation_reason: str = ""
    #: ``journal.opaque`` markers seen (mutations whose payload could
    #: not be journaled; their state is only in full snapshots).
    opaque_records: int = 0


# -- payload transport ------------------------------------------------------

#: JSON-native leaf types that pass through untouched.
_NATIVE = (type(None), bool, int, float, str)


def encode_payload(value: Any) -> Any:
    """Make ``value`` JSON-representable, reversibly.

    ``bytes``/``bytearray`` become ``{"__w5b64__": "..."}``; tuples
    become lists (the same coercion a snapshot→JSON→restore round trip
    applies); dicts and lists recurse.  Anything else raises
    ``TypeError`` — the caller downgrades the record to an opaque
    marker rather than losing the whole journal.
    """
    if isinstance(value, _NATIVE):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {"__w5b64__": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            if k == "__w5b64__":
                raise TypeError("reserved key __w5b64__")
            out[k] = encode_payload(v)
        return out
    if isinstance(value, (list, tuple)):
        return [encode_payload(v) for v in value]
    raise TypeError(f"unjournalable payload of type {type(value).__name__}")


def decode_payload(value: Any) -> Any:
    """Inverse of :func:`encode_payload` (tuples come back as lists)."""
    if isinstance(value, dict):
        if set(value) == {"__w5b64__"}:
            return base64.b64decode(value["__w5b64__"])
        return {k: decode_payload(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_payload(v) for v in value]
    return value


class Journal:
    """An append-only, checksummed, replayable mutation log."""

    #: Process-unique instance ids (see :class:`JournalCursor`).
    _ids = itertools.count(1)

    def __init__(self, compact_threshold: int = 1 << 20) -> None:
        #: Compaction trigger: once the image exceeds this many bytes,
        #: the next incremental snapshot escalates to a full one and
        #: resets the journal (see DurabilityManager).
        self.compact_threshold = compact_threshold
        #: Identity for cursors: never reused within a process.
        self.journal_id = next(Journal._ids)
        #: Bumped on every :meth:`reset`; cursors from older epochs
        #: are stale (their history was folded into the base snapshot).
        self.epoch = 0
        self._buf = bytearray()
        self._seq = 0
        #: Byte offset where each record's line starts:
        #: ``_offsets[k]`` is the offset of the record with seq
        #: ``k + 1``.  One int per record, so tailing is an O(new
        #: records) parse — never a rescan of the whole image.
        self._offsets: list[int] = []
        self._stats = {"appends": 0, "bytes_written": 0,
                       "opaque_appends": 0, "resets": 0}

    # -- writing -----------------------------------------------------------

    def append(self, op: str, data: dict[str, Any]) -> JournalRecord:
        """Append one durable mutation; returns the sealed record.

        ``data`` is encoded via :func:`encode_payload`; a payload that
        cannot be encoded is replaced by a ``journal.opaque`` marker
        (op preserved inside) so the log structure survives — recovery
        reports it and the state it covered lives only in snapshots.
        """
        seq = self._seq + 1
        try:
            # Fast path: most payloads are already JSON-native, so one
            # dumps call both validates and serializes them.  Tuples
            # serialize as lists here, matching encode_payload.
            body = json.dumps({"seq": seq, "op": op, "data": data},
                              separators=(",", ":"))
            encoded = data
        except (TypeError, ValueError):
            try:
                encoded = encode_payload(data)
            except TypeError as exc:
                self._stats["opaque_appends"] += 1
                encoded = {"op": op, "why": str(exc)}
                op = "journal.opaque"
            body = _body(seq, op, encoded)
        self._seq = seq
        raw = body.encode("utf-8")
        line = b'{"crc":"%08x",' % (zlib.crc32(raw) & 0xFFFFFFFF) \
            + raw[1:] + b"\n"
        self._offsets.append(len(self._buf))
        self._buf += line
        self._stats["appends"] += 1
        self._stats["bytes_written"] += len(line)
        return JournalRecord(seq=seq, op=op, data=encoded)

    def reset(self, *, _compaction: bool = True) -> None:
        """Start a fresh epoch (called after a full snapshot is taken:
        everything the journal recorded is now in the base).  Cursors
        minted before the reset go stale — :meth:`tail_from` will
        refuse them rather than alias the restarted sequence."""
        self._buf = bytearray()
        self._seq = 0
        self._offsets = []
        self.epoch += 1
        self._stats["resets"] += 1

    # -- reading -----------------------------------------------------------

    @property
    def seq(self) -> int:
        return self._seq

    @property
    def size_bytes(self) -> int:
        return len(self._buf)

    def needs_compaction(self) -> bool:
        return len(self._buf) > self.compact_threshold

    def raw_bytes(self) -> bytes:
        """The byte image a real deployment would have on disk."""
        return bytes(self._buf)

    # -- tailing (M15: incremental consumers) ------------------------------

    def position(self) -> JournalCursor:
        """The current end-of-log cursor: ``tail_from(position())`` is
        empty until the next append."""
        return JournalCursor(self.journal_id, self.epoch, self._seq)

    def honors(self, cursor: Optional[JournalCursor]) -> bool:
        """Whether ``cursor`` points into this journal's live history:
        minted by this instance, in the current epoch, at a seq this
        epoch has reached.  The one staleness rule every tailing
        consumer shares; any other cursor points into history that no
        longer exists as records."""
        return cursor is not None and cursor.journal_id == self.journal_id \
            and cursor.epoch == self.epoch and cursor.seq <= self._seq

    def tail_from(self, cursor: Optional[JournalCursor]
                  ) -> Optional[list[JournalRecord]]:
        """Every record appended after ``cursor``, or ``None`` if the
        journal does not :meth:`honor <honors>` the cursor (the
        consumer must then fall back to a full resync).

        Cost is O(records past the cursor): the per-record offset
        index turns the tail into one byte-slice parse, and every call
        decodes its records afresh.  A consumer serving many cursors
        on one journal should decode each record once and share it
        (the federation delta engine keeps one decoded window per
        link side).  Records come back with their journaled
        (JSON-coerced) payloads; consumers that need live objects
        treat them as *pointers* into current state, not as the state
        itself.
        """
        if not self.honors(cursor):
            return None
        if cursor.seq == self._seq:
            return []
        records: list[JournalRecord] = []
        start = self._offsets[cursor.seq]
        for line in bytes(self._buf[start:]).splitlines():
            obj = json.loads(line)
            records.append(JournalRecord(seq=obj["seq"], op=obj["op"],
                                         data=obj["data"]))
        return records

    def stats(self) -> dict[str, int]:
        return {**self._stats, "seq": self._seq,
                "size_bytes": len(self._buf),
                "compact_threshold": self.compact_threshold}

    # -- recovery ----------------------------------------------------------

    @staticmethod
    def recover(raw: bytes) -> tuple[list[JournalRecord], ReplayReport]:
        """Parse a (possibly torn) journal image.

        Returns every verified record before the first sign of damage,
        plus a report saying how many tail bytes were dropped and why.
        Damage never raises: a journal is exactly as good as its
        longest verifiable prefix.
        """
        records: list[JournalRecord] = []
        report = ReplayReport()
        offset = 0
        expect = 1
        while offset < len(raw):
            nl = raw.find(b"\n", offset)
            if nl < 0:
                report.truncated_bytes = len(raw) - offset
                report.truncation_reason = "torn record (no newline)"
                break
            line = raw[offset:nl]
            try:
                obj = json.loads(line)
                crc = obj.pop("crc")
                seq, op, data = obj["seq"], obj["op"], obj["data"]
                if not isinstance(seq, int) or not isinstance(op, str) \
                        or not isinstance(data, dict):
                    raise ValueError("bad field types")
            except (ValueError, KeyError, UnicodeDecodeError):
                report.truncated_bytes = len(raw) - offset
                report.truncation_reason = "unparseable record"
                break
            body = b"{" + line[_CRC_PREFIX_LEN:]
            if not line.startswith(b'{"crc":"') or crc != format(
                    zlib.crc32(body) & 0xFFFFFFFF, "08x"):
                report.truncated_bytes = len(raw) - offset
                report.truncation_reason = "checksum mismatch"
                break
            if seq != expect:
                report.truncated_bytes = len(raw) - offset
                report.truncation_reason = (
                    f"sequence gap (expected {expect}, found {seq})")
                break
            if op == "journal.opaque":
                report.opaque_records += 1
            records.append(JournalRecord(seq=seq, op=op, data=data))
            report.records += 1
            expect += 1
            offset = nl + 1
        return records, report
