"""The labeled tuple store — W5's replacement for shared SQL.

The paper flags SQL as a problem twice: malicious queries can lock the
database for everyone (§3.5 "Performance"), and "the SQL interface to
databases can leak information implicitly and thus needs to be replaced
under W5" (§3.5 "Covert Channels").  This module is that replacement:

* every row carries its own secrecy/integrity labels, checked with the
  same guards as files (:mod:`repro.core.access`);
* queries are **label-filtered**: rows the caller may not read are
  silently omitted, so result *presence, absence, count and error
  behaviour* are all independent of invisible data — the read-back
  covert channel is closed by construction (demonstrated head-to-head
  in experiment C10 against a fail-stop variant that leaks one bit per
  query);
* every operation charges the caller's query budget through the kernel
  resource hook, which is how a provider keeps one developer's hostile
  query from starving the cluster (experiment C9).

The query language is deliberately tiny — equality matches plus an
optional predicate — because a full SQL engine adds nothing to the
security argument.  Equality lookups use hash indexes declared at
table-creation time.

Label partitions
----------------

A W5 table with 100k rows typically holds only tens of *distinct*
``(slabel, ilabel)`` pairs — one per user/app sharing contract, the
structure Flume's label algebra and HiStar's category model predict.
:class:`Table` therefore physically groups rows into **partitions**
keyed by that pair, and the default engine
(``LabeledStore(kernel, partitioned=True)``) resolves visibility *once
per partition* against the caller's epoch-guarded
:class:`~repro.labels.FlowCache` verdict: invisible partitions are
skipped wholesale, the ``db_rows_scanned`` charge is batched into one
call per partition, and only rows that survive the where/predicate
filter are snapshotted.  Query label cost scales with distinct labels,
not rows (experiment M9), while every observable — results, audit
stream, resource-charge totals, ``pad_scan_to`` padding — is
byte-identical to the naive per-row engine, which stays available as
``partitioned=False`` (the benchmark baseline and the differential-test
oracle in ``tests/db/test_partition_differential.py``).

Scans (``select``/``count``) and the update/delete front half share one
partition-visibility loop, :meth:`LabeledStore._visible_rows`; update
and delete share one write-selection body per engine,
:meth:`LabeledStore._writable_matches`.
"""

from __future__ import annotations

import copy
import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

from ..core import access
from ..kernel import Kernel, Process
from ..kernel import audit as A
from ..labels import IntegrityViolation, Label, SecrecyViolation
from .errors import NoSuchRow, NoSuchTable, SchemaError, TableExists

Predicate = Callable[[dict[str, Any]], bool]

#: Sentinel namespacing the slot-aligned entries inside a table's
#: ``_cand_cache`` so they can never collide with an index choice key.
_ARRAYS = object()

#: A partition key: the interned (slabel, ilabel) pair of its rows.
PartitionKey = "tuple[Label, Label]"


@dataclass
class Row:
    """One labeled tuple."""

    row_id: int
    values: dict[str, Any]
    slabel: Label
    ilabel: Label
    version: int = 1
    #: Cached "all values are immutable scalars" verdict; None = not
    #: yet computed, recomputed lazily after every update.
    _flat: Optional[bool] = field(default=None, repr=False, compare=False)

    #: Strictly immutable leaf types only — a tuple/frozenset may nest
    #: a mutable object, so containers always take the deepcopy path.
    _FLAT_TYPES = (type(None), bool, int, float, complex, str, bytes)

    def partition_key(self) -> tuple[Label, Label]:
        return (self.slabel, self.ilabel)

    def snapshot(self) -> dict[str, Any]:
        """A defensive copy handed to callers: rows are store-owned,
        and a shared nested list would let a reader mutate storage past
        the write checks.  Rows of immutable scalars — the common case
        — take a shallow ``dict`` copy (the values cannot be mutated
        through it); anything nested still gets the full deepcopy."""
        if self._flat is None:
            self._flat = all(
                type(v) in self._FLAT_TYPES for v in self.values.values())
        if self._flat:
            return dict(self.values)
        return copy.deepcopy(self.values)


@dataclass
class Table:
    """A named collection of rows plus its hash indexes.

    Rows are physically grouped into label **partitions** (one per
    distinct ``(slabel, ilabel)`` pair), and the hash indexes are
    partition-aware: ``column → value → partition → row ids``.  Both
    structures are maintained by :meth:`index_add`/:meth:`index_remove`
    so every caller that kept the flat index consistent keeps the
    partitions consistent too.

    ``pad_scan_to`` closes the residual timing channel of full scans
    (experiment C10b): when set, every unindexed query is charged as
    if it touched at least that many rows, so query cost no longer
    reveals how much *invisible* data the table holds.  The provider
    pays the padding in wasted work — the classic covert-channel
    bandwidth/performance trade.
    """

    name: str
    indexed_columns: tuple[str, ...] = ()
    pad_scan_to: Optional[int] = None
    rows: dict[int, Row] = field(default_factory=dict)
    # (slabel, ilabel) -> row id -> row (the physical label grouping)
    partitions: dict[tuple[Label, Label], dict[int, Row]] = field(
        default_factory=dict)
    # column -> value -> partition key -> set of row ids
    indexes: dict[str, dict[Any, dict[tuple[Label, Label], set[int]]]] = \
        field(default_factory=dict)
    #: Memoized sorted candidate-id lists per (index choice) — the
    #: partitioned scan needs ids in row-id order every query, and
    #: re-sorting an unchanged bucket per request is pure overhead.
    #: Any membership change clears it (labels are immutable, so
    #: updates that move no index bucket leave candidates intact).
    _cand_cache: dict = field(default_factory=dict, repr=False,
                              compare=False)

    def __post_init__(self) -> None:
        for col in self.indexed_columns:
            self.indexes.setdefault(col, {})

    # -- index + partition maintenance (store-internal) ----------------

    def index_add(self, row: Row) -> None:
        if self._cand_cache:
            self._cand_cache.clear()
        pkey = row.partition_key()
        self.partitions.setdefault(pkey, {})[row.row_id] = row
        for col, idx in self.indexes.items():
            if col in row.values:
                idx.setdefault(row.values[col], {}) \
                   .setdefault(pkey, set()).add(row.row_id)

    def index_remove(self, row: Row) -> None:
        if self._cand_cache:
            self._cand_cache.clear()
        pkey = row.partition_key()
        part = self.partitions.get(pkey)
        if part is not None:
            part.pop(row.row_id, None)
            if not part:
                del self.partitions[pkey]
        for col, idx in self.indexes.items():
            if col in row.values:
                bucket = idx.get(row.values[col])
                if bucket:
                    ids = bucket.get(pkey)
                    if ids:
                        ids.discard(row.row_id)
                        if not ids:
                            del bucket[pkey]
                    if not bucket:
                        del idx[row.values[col]]


class LabeledStore:
    """A multi-table store enforcing per-row labels on every operation.

    ``partitioned`` selects the engine: ``True`` (default) resolves
    visibility once per label partition; ``False`` is the naive per-row
    oracle with identical observable behaviour.
    """

    def __init__(self, kernel: Kernel, partitioned: bool = True,
                 batch_charges: bool = True,
                 verdict_slots: bool = True) -> None:
        self.kernel = kernel
        self.partitioned = partitioned
        #: M14: fuse the per-partition ``db_rows_scanned`` charges of
        #: one scan into a single sequential-equivalent ``charge_many``.
        self.batch_charges = batch_charges
        #: M14: planned scans index a dense verdict list by small-int
        #: partition slot instead of probing a dict per partition.
        self.verdict_slots = verdict_slots
        #: Store-wide partition-slot registry: (slabel, ilabel) -> the
        #: small int the dense verdict rows are indexed by.  Assigned
        #: on first sight and never recycled (labels are interned).
        self._slots: dict[tuple[Label, Label], int] = {}
        self._tables: dict[str, Table] = {}
        self._row_ids = itertools.count(1)
        #: Partition-scan observability (read via :meth:`stats`).
        self._stats = {"partitions_visible": 0, "partitions_skipped": 0,
                       "rows_skipped": 0, "batched_charges": 0}
        #: Durability hook: ``(op, data)`` per mutation (journal).
        self.on_mutate: Optional[Callable[[str, dict], None]] = None
        #: O(dirty) snapshot bookkeeping since the last full checkpoint:
        #: per-table inserted/updated row ids and removed row ids, plus
        #: catalog-level created/dropped table names.
        self._dirty_rows: dict[str, set[int]] = {}
        self._removed_rows: dict[str, set[int]] = {}
        self._created_tables: set[str] = set()
        self._dropped_tables: set[str] = set()

    # -- durability bookkeeping ----------------------------------------

    def mark_clean(self) -> None:
        """Forget dirty state (a full snapshot was just taken)."""
        self._dirty_rows.clear()
        self._removed_rows.clear()
        self._created_tables.clear()
        self._dropped_tables.clear()

    def dirty_state(self) -> dict[str, Any]:
        return {
            "dirty_rows": {t: set(ids)
                           for t, ids in self._dirty_rows.items() if ids},
            "removed_rows": {t: set(ids)
                             for t, ids in self._removed_rows.items() if ids},
            "created_tables": set(self._created_tables),
            "dropped_tables": set(self._dropped_tables),
        }

    def _note_row(self, table_name: str, row_id: int) -> None:
        self._dirty_rows.setdefault(table_name, set()).add(row_id)
        removed = self._removed_rows.get(table_name)
        if removed:
            removed.discard(row_id)

    def _note_removed(self, table_name: str, row_id: int) -> None:
        self._removed_rows.setdefault(table_name, set()).add(row_id)
        dirty = self._dirty_rows.get(table_name)
        if dirty:
            dirty.discard(row_id)

    def stats(self) -> dict[str, Any]:
        """Partition hit/skip counters for metrics and benchmarks."""
        return {"partitioned": self.partitioned, **self._stats}

    def snapshot(self) -> dict[str, Any]:
        """:class:`~repro.core.snapshot.Snapshotable` — serialize every
        table with per-row labels (restore with
        :func:`repro.db.restore_store`)."""
        from .persist import snapshot_store
        return snapshot_store(self)

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------

    def create_table(self, process: Process, name: str,
                     indexes: Iterable[str] = (),
                     pad_scan_to: Optional[int] = None) -> Table:
        """Create a table.  The catalog itself is public (table names
        must not depend on secrets, or their existence would leak)."""
        self.kernel.resources.charge(process, "db_queries", 1)
        if name in self._tables:
            raise TableExists(name)
        table = Table(name=name, indexed_columns=tuple(indexes),
                      pad_scan_to=pad_scan_to)
        self._tables[name] = table
        self._created_tables.add(name)
        self._dropped_tables.discard(name)
        if self.on_mutate is not None:
            self.on_mutate("db.create_table", {
                "name": name, "indexes": list(table.indexed_columns),
                "pad_scan_to": pad_scan_to})
        self.kernel.audit.record(A.DB_QUERY, True, process.name,
                                 f"create table {name}")
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise NoSuchTable(name) from None

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def drop_table(self, process: Process, name: str) -> None:
        """Drop a table; requires write access to every remaining row."""
        table = self.table(name)
        for row in table.rows.values():
            access.check_write(process, row.slabel, row.ilabel,
                               f"{name}#{row.row_id}",
                               cache=self.kernel.flow_cache,
                               category="db.write")
        del self._tables[name]
        self._dropped_tables.add(name)
        self._created_tables.discard(name)
        self._dirty_rows.pop(name, None)
        self._removed_rows.pop(name, None)
        if self.on_mutate is not None:
            self.on_mutate("db.drop_table", {"name": name})
        self.kernel.audit.record(A.DB_QUERY, True, process.name,
                                 f"drop table {name}")

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def insert(self, process: Process, table_name: str,
               values: dict[str, Any], slabel: Optional[Label] = None,
               ilabel: Optional[Label] = None) -> int:
        """Insert a row; labels default to the writer's labels.

        Like file creation, the chosen labels are checked as a write:
        a tainted process cannot insert into a less-tainted row.
        """
        with self.kernel.tracer.detail("db.insert", table=table_name):
            return self._insert(process, table_name, values, slabel, ilabel)

    def _insert(self, process: Process, table_name: str,
                values: dict[str, Any], slabel: Optional[Label],
                ilabel: Optional[Label]) -> int:
        table = self.table(table_name)
        self.kernel.resources.charge(process, "db_queries", 1)
        if not isinstance(values, dict):
            raise SchemaError("row values must be a dict")
        row = Row(row_id=next(self._row_ids),
                  values=copy.deepcopy(values),
                  slabel=process.slabel if slabel is None else slabel,
                  ilabel=process.ilabel if ilabel is None else ilabel)
        try:
            access.check_write(process, row.slabel, row.ilabel,
                               f"{table_name}#new",
                               cache=self.kernel.flow_cache,
                               category="db.write")
        except (SecrecyViolation, IntegrityViolation):
            self.kernel.audit.record(A.DB_QUERY, False, process.name,
                                     f"insert {table_name} refused")
            raise
        self.kernel.resources.charge(process, "db_rows", 1)
        table.rows[row.row_id] = row
        table.index_add(row)
        self._note_row(table_name, row.row_id)
        if self.on_mutate is not None:
            self.on_mutate("db.insert", {
                "table": table_name, "row_id": row.row_id,
                "values": row.values,
                "slabel": sorted(t.tag_id for t in row.slabel),
                "ilabel": sorted(t.tag_id for t in row.ilabel)})
        self.kernel.audit.record_lazy(A.DB_QUERY, True, process.name,
                                      "insert %s#%d",
                                      (table_name, row.row_id))
        return row.row_id

    def update(self, process: Process, table_name: str,
               where: Optional[dict[str, Any]] = None,
               predicate: Optional[Predicate] = None,
               changes: Optional[dict[str, Any]] = None,
               plan: Optional[Any] = None) -> int:
        """Update every *visible and writable* matching row.

        Rows the caller cannot read are silently skipped (they are not
        part of the caller's world); rows it can read but not write
        raise — failing to update data you can see is an honest error,
        not a covert channel.  Returns the number of rows updated.
        """
        with self.kernel.tracer.detail("db.update", table=table_name):
            return self._update(process, table_name, where, predicate,
                                changes, plan)

    def _update(self, process: Process, table_name: str,
                where: Optional[dict[str, Any]],
                predicate: Optional[Predicate],
                changes: Optional[dict[str, Any]],
                plan: Optional[Any] = None) -> int:
        if changes is None:
            raise SchemaError("update requires changes")
        table = self.table(table_name)
        # All-scalar change sets share one hoisted copy; nested values
        # still get a per-row deepcopy so rows never alias each other.
        flat_changes = all(type(v) in Row._FLAT_TYPES
                           for v in changes.values())
        hoisted = dict(changes) if flat_changes else None
        # Labels never change under update, so partition membership is
        # stable; the index round-trip is only needed when an indexed
        # column's value may move buckets.
        touches_index = any(col in table.indexes for col in changes)

        # Check every match before changing any: a refused row later
        # in the scan must leave the table (and the journal) untouched.
        matches = list(self._writable_matches(process, table, where,
                                              predicate, plan, "update"))
        touched: list[int] = []
        for row in matches:
            if touches_index:
                table.index_remove(row)
            if flat_changes:
                row.values.update(hoisted)
                if row._flat is not True:
                    row._flat = None  # re-derive lazily
            else:
                row.values.update(copy.deepcopy(changes))
                row._flat = False  # a container was just written
            row.version += 1
            if touches_index:
                table.index_add(row)
            self._note_row(table_name, row.row_id)
            touched.append(row.row_id)
        if touched and self.on_mutate is not None:
            self.on_mutate("db.update", {
                "table": table_name, "rows": sorted(touched),
                "changes": changes})
        self.kernel.audit.record_lazy(A.DB_QUERY, True, process.name,
                                      "update %s (%d rows)",
                                      (table_name, len(touched)))
        return len(touched)

    def delete(self, process: Process, table_name: str,
               where: Optional[dict[str, Any]] = None,
               predicate: Optional[Predicate] = None,
               plan: Optional[Any] = None) -> int:
        """Delete every visible and writable matching row (count returned)."""
        with self.kernel.tracer.detail("db.delete", table=table_name):
            return self._delete(process, table_name, where, predicate, plan)

    def _delete(self, process: Process, table_name: str,
                where: Optional[dict[str, Any]],
                predicate: Optional[Predicate],
                plan: Optional[Any] = None) -> int:
        table = self.table(table_name)
        doomed = list(self._writable_matches(process, table, where,
                                             predicate, plan, "delete"))
        for row in doomed:
            table.index_remove(row)
            del table.rows[row.row_id]
            self._note_removed(table_name, row.row_id)
        if doomed and self.on_mutate is not None:
            self.on_mutate("db.delete", {
                "table": table_name,
                "rows": sorted(r.row_id for r in doomed)})
        self.kernel.audit.record_lazy(A.DB_QUERY, True, process.name,
                                      "delete %s (%d rows)",
                                      (table_name, len(doomed)))
        return len(doomed)

    def purge_rows(self, table_name: str, row_ids: Iterable[int]) -> int:
        """Provider cold-path removal: drop rows by id with *no* label
        checks, charges, or audit (account deletion reaches past the
        departed user's labels by design).  Journaled so recovery
        reproduces the purge.
        """
        table = self.table(table_name)
        purged = []
        for rid in row_ids:
            row = table.rows.get(rid)
            if row is None:
                continue
            table.index_remove(row)
            del table.rows[rid]
            self._note_removed(table_name, rid)
            purged.append(rid)
        if purged and self.on_mutate is not None:
            self.on_mutate("db.purge", {
                "table": table_name, "rows": sorted(purged)})
        return len(purged)

    # -- replay installers (journal recovery only) ---------------------

    def install_table(self, name: str, indexes: Iterable[str] = (),
                      pad_scan_to: Optional[int] = None) -> Table:
        """Re-create a table during replay (no charges, no checks)."""
        table = Table(name=name, indexed_columns=tuple(indexes),
                      pad_scan_to=pad_scan_to)
        self._tables[name] = table
        self._created_tables.add(name)
        self._dropped_tables.discard(name)
        return table

    def install_row(self, table_name: str, row_id: int,
                    values: dict[str, Any], slabel: Label,
                    ilabel: Label) -> Row:
        """Re-insert a row with a *known* id during replay; keeps the
        id counter ahead of every installed id."""
        table = self.table(table_name)
        row = Row(row_id=row_id, values=values, slabel=slabel,
                  ilabel=ilabel)
        table.rows[row_id] = row
        table.index_add(row)
        self._note_row(table_name, row_id)
        nxt = next(self._row_ids)
        self._row_ids = itertools.count(max(nxt, row_id + 1))
        return row

    def apply_changes(self, table_name: str, row_ids: Iterable[int],
                      changes: dict[str, Any]) -> None:
        """Replay one journaled update: same physical effect as
        :meth:`update` on exactly those rows."""
        table = self.table(table_name)
        touches_index = any(col in table.indexes for col in changes)
        for rid in row_ids:
            row = table.rows.get(rid)
            if row is None:
                continue
            if touches_index:
                table.index_remove(row)
            row.values.update(copy.deepcopy(changes))
            row._flat = None
            row.version += 1
            if touches_index:
                table.index_add(row)
            self._note_row(table_name, rid)

    def remove_rows(self, table_name: str, row_ids: Iterable[int]) -> None:
        """Replay one journaled delete/purge (no checks, no journal)."""
        table = self.table(table_name)
        for rid in row_ids:
            row = table.rows.get(rid)
            if row is None:
                continue
            table.index_remove(row)
            del table.rows[rid]
            self._note_removed(table_name, rid)

    def drop_table_raw(self, name: str) -> None:
        """Replay one journaled drop (no checks, no journal)."""
        self._tables.pop(name, None)
        self._dropped_tables.add(name)
        self._created_tables.discard(name)
        self._dirty_rows.pop(name, None)
        self._removed_rows.pop(name, None)

    def _writable_matches(self, process: Process, table: Table,
                          where: Optional[dict[str, Any]],
                          predicate: Optional[Predicate],
                          plan: Optional[Any], verb: str) -> Iterator[Row]:
        """The update/delete front half: yield each visible matching row
        in row-id order once it is checked writable; the first readable
        but unwritable row is audited as a refused ``verb`` and raises.

        Callers materialize it before changing any row, so a refused
        row leaves the whole statement without effect (no half-applied
        update, no dirty rows, no journal record).  The partitioned
        engine reads visibility once per partition and memoizes the
        write verdict per partition; the naive engine checks every
        candidate row."""
        if self.partitioned:
            write_verdicts: dict[tuple[Label, Label], bool] = {}
            for row in self._visible_rows(process, table, where,
                                          predicate, plan)[0]:
                pkey = row.partition_key()
                allowed = write_verdicts.get(pkey)
                if allowed is None:
                    allowed = access.writable(
                        process, row.slabel, row.ilabel,
                        cache=self.kernel.flow_cache, category="db.write")
                    write_verdicts[pkey] = allowed
                if not allowed:
                    self._refuse_write(process, row, table.name, verb)
                yield row
            return
        for row in self._candidate_rows(process, table, where):
            if not access.readable(process, row.slabel, row.ilabel,
                                   cache=self.kernel.flow_cache,
                                   category="db.read"):
                continue
            if not _matches(row, where, predicate):
                continue
            try:
                access.check_write(process, row.slabel, row.ilabel,
                                   f"{table.name}#{row.row_id}",
                                   cache=self.kernel.flow_cache,
                                   category="db.write")
            except (SecrecyViolation, IntegrityViolation):
                self.kernel.audit.record(
                    A.DB_QUERY, False, process.name,
                    f"{verb} {table.name}#{row.row_id} refused")
                raise
            yield row

    def _refuse_write(self, process: Process, row: Row, table_name: str,
                      verb: str) -> None:
        """Re-derive the precise write violation for ``row`` (the
        partition verdict said no), audit it, and raise — diagnostics
        byte-identical to the naive per-row engine's."""
        what = f"{table_name}#{row.row_id}"
        try:
            access.check_write(process, row.slabel, row.ilabel, what,
                               cache=self.kernel.flow_cache,
                               category="db.write")
        except (SecrecyViolation, IntegrityViolation):
            self.kernel.audit.record(A.DB_QUERY, False, process.name,
                                     f"{verb} {what} refused")
            raise
        raise AssertionError(
            f"partition verdict and decision procedure disagree on {what}")

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def select(self, process: Process, table_name: str,
               where: Optional[dict[str, Any]] = None,
               predicate: Optional[Predicate] = None,
               limit: Optional[int] = None,
               plan: Optional[Any] = None) -> list[dict[str, Any]]:
        """Label-filtered query: returns copies of visible matching rows.

        The result is *identical* to what it would be if invisible rows
        did not exist — the covert-channel-free semantics.  ``plan`` is
        an optional :class:`~repro.platform.plans.RequestPlan` whose
        value-keyed verdict table answers partition visibility without
        the pid-keyed flow cache (M12); it never changes which rows are
        visible, only where the verdict is remembered.
        """
        with self.kernel.tracer.detail("db.select", table=table_name):
            return self._select(process, table_name, where, predicate,
                                limit, plan)

    def _select(self, process: Process, table_name: str,
                where: Optional[dict[str, Any]],
                predicate: Optional[Predicate],
                limit: Optional[int],
                plan: Optional[Any] = None) -> list[dict[str, Any]]:
        table = self.table(table_name)
        if self.partitioned:
            # batch engine: the query charge rides in the scan's
            # charge_many as the first item — sequential-equivalent,
            # since a loop of charges would apply it first anyway
            if not self.batch_charges:
                self.kernel.resources.charge(process, "db_queries", 1)
            matches, scanned = self._scan_partitioned(
                process, table, where, predicate, limit, plan)
            out = [row.snapshot() for row in matches]
        else:
            self.kernel.resources.charge(process, "db_queries", 1)
            matches, scanned = self._scan_naive(
                process, table, where, predicate, limit)
            out = [row.snapshot() for row in matches]
        self._pad_scan(process, table, where, scanned)
        self.kernel.audit.record_lazy(A.DB_QUERY, True, process.name,
                                      "select %s (%d rows)",
                                      (table_name, len(out)))
        return out

    def select_failstop(self, process: Process, table_name: str,
                        where: Optional[dict[str, Any]] = None,
                        predicate: Optional[Predicate] = None) -> list[dict[str, Any]]:
        """The *rejected* design (DESIGN.md §6): raise if any matching
        row is unreadable.  Exists so experiment C10 can measure the
        covert channel this semantics opens (1 bit per query).  Not
        part of the supported API surface for applications.
        """
        table = self.table(table_name)
        self.kernel.resources.charge(process, "db_queries", 1)
        out: list[dict[str, Any]] = []
        for row in self._candidate_rows(process, table, where):
            if not _matches(row, where, predicate):
                continue
            access.check_read(process, row.slabel, row.ilabel,
                              f"{table_name}#{row.row_id}",
                              cache=self.kernel.flow_cache,
                              category="db.read")
            out.append(row.snapshot())
        return out

    def count(self, process: Process, table_name: str,
              where: Optional[dict[str, Any]] = None,
              predicate: Optional[Predicate] = None,
              plan: Optional[Any] = None) -> int:
        """Label-filtered count (same visibility rule as select).

        Shares the scan core with :meth:`select` but never snapshots a
        row — counting costs no copies.  Charges and audit stream are
        identical to the equivalent ``select`` (it audits as one, the
        historical record shape).
        """
        with self.kernel.tracer.detail("db.count", table=table_name):
            return self._count(process, table_name, where, predicate, plan)

    def _count(self, process: Process, table_name: str,
               where: Optional[dict[str, Any]],
               predicate: Optional[Predicate],
               plan: Optional[Any] = None) -> int:
        table = self.table(table_name)
        if self.partitioned:
            if not self.batch_charges:
                self.kernel.resources.charge(process, "db_queries", 1)
            matches, scanned = self._scan_partitioned(
                process, table, where, predicate, None, plan)
        else:
            self.kernel.resources.charge(process, "db_queries", 1)
            matches, scanned = self._scan_naive(
                process, table, where, predicate, None)
        self._pad_scan(process, table, where, scanned)
        self.kernel.audit.record_lazy(A.DB_QUERY, True, process.name,
                                      "select %s (%d rows)",
                                      (table_name, len(matches)))
        return len(matches)

    def get(self, process: Process, table_name: str, row_id: int) -> dict[str, Any]:
        """Fetch one visible row by id; invisible ids read as missing."""
        with self.kernel.tracer.detail("db.get", table=table_name):
            return self._get(process, table_name, row_id)

    def _get(self, process: Process, table_name: str,
             row_id: int) -> dict[str, Any]:
        table = self.table(table_name)
        self.kernel.resources.charge(process, "db_queries", 1)
        row = table.rows.get(row_id)
        if row is None or not access.readable(
                process, row.slabel, row.ilabel,
                cache=self.kernel.flow_cache, category="db.read"):
            raise NoSuchRow(f"{table_name}#{row_id}")
        return row.snapshot()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _scan_naive(self, process: Process, table: Table,
                    where: Optional[dict[str, Any]],
                    predicate: Optional[Predicate],
                    limit: Optional[int]) -> tuple[list[Row], int]:
        """The per-row oracle: one charge, one verdict per candidate."""
        out: list[Row] = []
        scanned = 0
        for row in self._candidate_rows(process, table, where):
            scanned += 1
            self.kernel.resources.charge(process, "db_rows_scanned", 1)
            if not access.readable(process, row.slabel, row.ilabel,
                                   cache=self.kernel.flow_cache,
                                   category="db.read"):
                continue
            if not _matches(row, where, predicate):
                continue
            out.append(row)
            if limit is not None and len(out) >= limit:
                break
        return out, scanned

    def _scan_partitioned(self, process: Process, table: Table,
                          where: Optional[dict[str, Any]],
                          predicate: Optional[Predicate],
                          limit: Optional[int],
                          plan: Optional[Any] = None
                          ) -> tuple[list[Row], int]:
        """One visibility verdict and one batched charge per partition.

        Returns exactly the rows (in row-id order, honoring ``limit``)
        and the scanned-row total the naive engine would produce; the
        ``db_rows_scanned`` charges land in one call per partition, and
        with a ``limit`` each partition is charged only up to the
        naive engine's stopping point (a bisect, not a walk).
        """
        matches, idlists = self._visible_rows(process, table, where,
                                              predicate, plan)
        # The naive loop breaks after appending its limit-th match
        # (with limit < 1 it still appends one row first), so rows past
        # that match are never charged.
        cutoff = None
        if limit is not None and matches and len(matches) >= max(limit, 1):
            matches = matches[:max(limit, 1)]
            cutoff = matches[-1].row_id
        stats = self._stats
        resources = self.kernel.resources
        batch = self.batch_charges
        items = [("db_queries", 1.0)]
        scanned = 0
        for ids in idlists:
            n = len(ids) if cutoff is None else bisect_right(ids, cutoff)
            if n:
                if batch:
                    items.append(("db_rows_scanned", n))
                else:
                    resources.charge(process, "db_rows_scanned", n)
                    stats["batched_charges"] += 1
            scanned += n
        if batch:
            resources.charge_many(process, items)
            stats["batched_charges"] += len(items)
        return matches, scanned

    def _visible_rows(self, process: Process, table: Table,
                      where: Optional[dict[str, Any]],
                      predicate: Optional[Predicate],
                      plan: Optional[Any]) -> tuple[list[Row], Any]:
        """The one partition-visibility loop, shared by scans and the
        write front half: visible matching rows in row-id order, plus
        the candidate id lists per partition (what scans charge for).

        One read verdict per partition, from one of three sources: a
        plan's dense verdict row indexed by partition slot (M14, with
        ``verdict_slots``), a plan's value-keyed verdict table (M12),
        or the caller's flow cache.  The loop indexes the verdicts by
        slot or by partition key alike."""
        verdicts: Any
        if plan is not None and self.verdict_slots:
            pkeys, slots, idlists, prechecked = \
                self._partition_arrays(table, where)
            verdicts = plan.read_verdict_row(process, pkeys, slots)
            keyed: Any = zip(slots, idlists)
            if prechecked:
                # every candidate id came from the one where-column's
                # index bucket, so the rows need no re-check
                where = None
        else:
            parts = self._partition_candidates(table, where)
            if plan is not None:
                # Plan verdicts are keyed by the process's *label
                # state*, so the fresh process a tainted request
                # spawned still hits.
                verdicts = plan.read_verdicts(process, parts)
            else:
                verdicts = access.readable_pairs(
                    process, list(parts), cache=self.kernel.flow_cache,
                    category="db.read")
            keyed = parts.items()
            idlists = parts.values()
        stats = self._stats
        rows = table.rows
        matches: list[Row] = []
        for key, ids in keyed:
            if not verdicts[key]:
                stats["partitions_skipped"] += 1
                stats["rows_skipped"] += len(ids)
                continue
            stats["partitions_visible"] += 1
            for rid in ids:
                row = rows.get(rid)
                if row is not None and _matches(row, where, predicate):
                    matches.append(row)
        matches.sort(key=lambda r: r.row_id)
        return matches, idlists

    def _pad_scan(self, process: Process, table: Table,
                  where: Optional[dict[str, Any]], scanned: int) -> None:
        if table.pad_scan_to is not None and scanned < table.pad_scan_to \
                and not self._used_index(table, where):
            # constant-cost scans: pay for the rows not present so the
            # query's cost is independent of invisible data (C10b)
            self.kernel.resources.charge(process, "db_rows_scanned",
                                         table.pad_scan_to - scanned)

    @staticmethod
    def _best_index(table: Table, where: Optional[dict[str, Any]]
                    ) -> Optional[tuple[str, Any]]:
        """The indexed where-column with the smallest bucket (fewest
        candidate rows), or None when no where-column is indexed."""
        best: Optional[tuple[int, str, Any]] = None
        if where:
            for col, value in where.items():
                if col in table.indexes:
                    bucket = table.indexes[col].get(value)
                    size = sum(len(ids) for ids in bucket.values()) \
                        if bucket else 0
                    if best is None or size < best[0]:
                        best = (size, col, value)
        if best is None:
            return None
        return best[1], best[2]

    def _candidate_rows(self, process: Process, table: Table,
                        where: Optional[dict[str, Any]]) -> list[Row]:
        """Narrow by the smallest available index bucket, else scan."""
        choice = self._best_index(table, where)
        if choice is not None:
            col, value = choice
            bucket = table.indexes[col].get(value)
            ids: set[int] = set()
            if bucket:
                for part_ids in bucket.values():
                    ids |= part_ids
            return [table.rows[i] for i in sorted(ids)
                    if i in table.rows]
        return [table.rows[i] for i in sorted(table.rows)]

    def _partition_candidates(self, table: Table,
                              where: Optional[dict[str, Any]]
                              ) -> dict[tuple[Label, Label], list[int]]:
        """Candidate row ids per partition (sorted), narrowed by the
        smallest index bucket when one applies.  Memoized on the table
        until any row is added or removed — callers never mutate the
        returned mapping."""
        choice = self._best_index(table, where)
        cached = table._cand_cache.get(choice)
        if cached is not None:
            return cached
        if choice is not None:
            col, value = choice
            bucket = table.indexes[col].get(value) or {}
            parts = {pkey: sorted(ids)
                     for pkey, ids in bucket.items() if ids}
        else:
            parts = {pkey: sorted(rows)
                     for pkey, rows in table.partitions.items() if rows}
        table._cand_cache[choice] = parts
        return parts

    def _partition_arrays(self, table: Table,
                          where: Optional[dict[str, Any]]
                          ) -> tuple[list, list, list]:
        """Slot-aligned view of :meth:`_partition_candidates` for the
        array-backed verdict path (M14): ``(pkeys, slots, idlists,
        prechecked)`` with the three lists aligned index-for-index and
        ``slots`` drawn from the store-wide registry.  ``prechecked``
        is True when the where clause is a single column answered by
        that column's index — every candidate id then satisfies it by
        construction, and the scan loop can skip re-verifying it row
        by row.  Memoized alongside the candidate mapping (same
        invalidation: any membership change clears the table's cache).

        The memo is keyed by the *where signature* (the sorted
        column/value pairs), not the index choice: :meth:`_best_index`
        re-walks bucket sizes to pick the smallest, and on a warm
        table that walk is the single most expensive step of a hot
        planned scan.  The signature determines the choice until any
        membership change — which clears this memo too.
        """
        cache = table._cand_cache
        wkey: Optional[tuple]
        if where:
            try:
                wkey = (_ARRAYS, tuple(sorted(where.items())))
            except TypeError:  # unhashable where value: no memo
                wkey = None
        else:
            wkey = (_ARRAYS, None)
        if wkey is not None:
            cached = cache.get(wkey)
            if cached is not None:
                return cached
        parts = self._partition_candidates(table, where)
        slot_of = self._slots
        pkeys = list(parts)
        slots = []
        for pkey in pkeys:
            slot = slot_of.get(pkey)
            if slot is None:
                slot = slot_of[pkey] = len(slot_of)
            slots.append(slot)
        prechecked = (bool(where) and len(where) == 1
                      and next(iter(where)) in table.indexes)
        arrays = (pkeys, slots, list(parts.values()), prechecked)
        if wkey is not None:
            cache[wkey] = arrays
        return arrays

    @staticmethod
    def _used_index(table: Table, where: Optional[dict[str, Any]]) -> bool:
        return bool(where) and any(col in table.indexes for col in where)


def _matches(row: Row, where: Optional[dict[str, Any]],
             predicate: Optional[Predicate]) -> bool:
    if where:
        for col, value in where.items():
            if row.values.get(col) != value:
                return False
    if predicate is not None and not predicate(row.values):
        return False
    return True


class DbView:
    """A store handle bound to one process (mirrors :class:`FsView`).

    ``plan`` optionally binds a compiled
    :class:`~repro.platform.plans.RequestPlan` (M12) so label-filtered
    reads answer partition visibility from the plan's value-keyed
    verdict table instead of the pid-keyed flow cache.
    """

    def __init__(self, store: LabeledStore, process: Process,
                 plan: Optional[Any] = None) -> None:
        self._store = store
        self._process = process
        self._plan = plan

    def create_table(self, name: str, indexes: Iterable[str] = ()) -> Table:
        return self._store.create_table(self._process, name, indexes=indexes)

    def has_table(self, name: str) -> bool:
        """Catalog probe.  The catalog is public (see
        :meth:`LabeledStore.create_table`), so this neither charges nor
        audits — it lets an app's ensure-table preamble skip the
        create/``TableExists`` exception round-trip on every request."""
        return name in self._store._tables

    def insert(self, table: str, values: dict[str, Any], **kw: Any) -> int:
        return self._store.insert(self._process, table, values, **kw)

    def select(self, table: str, **kw: Any) -> list[dict[str, Any]]:
        return self._store.select(self._process, table, plan=self._plan,
                                  **kw)

    def update(self, table: str, **kw: Any) -> int:
        return self._store.update(self._process, table, plan=self._plan,
                                  **kw)

    def delete(self, table: str, **kw: Any) -> int:
        return self._store.delete(self._process, table, plan=self._plan,
                                  **kw)

    def count(self, table: str, **kw: Any) -> int:
        return self._store.count(self._process, table, plan=self._plan,
                                 **kw)

    def get(self, table: str, row_id: int) -> dict[str, Any]:
        return self._store.get(self._process, table, row_id)
