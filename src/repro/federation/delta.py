"""Journal-cursor delta sync: O(dirty) federation rounds (M15).

The naive reconciler in :mod:`repro.federation.peering` is the honest
baseline: every round it lists the user's whole home, reads every file
on *both* providers, and re-selects every table row — O(corpus) per
round, quadratic over a session.  This module replaces the discovery
step with the M10 write-ahead journal: each side of a link keeps a
per-(user, peer) :class:`~repro.core.journal.JournalCursor`, and a
round only looks at journal records past the cursor that touch the
linked user.  Content still moves through agents holding exactly the
user's authority, batched as content-addressed envelopes
(:mod:`repro.net.envelopes`), so the round costs O(dirty), not
O(corpus) — the M15 benchmark's ~flat line.

**The journal is an index, never a data source.**  Tail records tell
the engine *which* paths and rows changed; the engine re-reads current
state through the reference monitor before shipping.  A forged or
stale record can therefore cause wasted work, never a policy bypass.

**Cursor safety.**  A cursor is only honored by the exact journal
instance and epoch it was minted from (``Journal.honors``, the one
staleness rule that ``Journal.tail_from``, the shared window and
``cursor_lag`` all apply).  Compaction, operator checkpoints, and crash
recovery all reset the journal; the next sync round detects the stale
cursor and falls back to one full content-based reconciliation — the
naive algorithm, byte-identical in outcome — then re-attaches a fresh
cursor.  Safety never depends on the cursor being right.

**One decoded window per link side.**  Every linked user holds a
cursor on the same two journals, so a ``sync_all`` pass that tailed
each cursor separately would decode every record once per user.
Instead each side keeps one window of decoded records: a round
extends it with only the records no earlier round decoded, and a
user's tail is the slice past its cursor.  The window is trimmed to
the oldest cursor the journal honors (recomputed only once the window
has doubled since the last trim), so it holds about one pass of
records; a stale window (reset or replaced journal) restarts, and
:meth:`DeltaSync.invalidate` drops it.  A decoded record now serves
every user, so its payload is read, never written.

**Equivalence with the naive twin.**  Every divergence-prone corner of
the naive reconciler is reproduced deliberately:

* files: per touched path, A's copy wins a conflict; a file deleted on
  one side is resurrected from the other (the naive pump never
  deletes);
* rows: the mirror is append-only; candidate rows are checked against
  a snapshot of the destination's visible content keys taken *before*
  the round's inserts (naive computes ``existing`` once per pump), so
  duplicate source rows ship as duplicates;
* rows deleted or updated away on one side are re-filled from the
  other side's live rows, exactly as the naive content comparison
  would.

``tests/federation/test_delta_differential.py`` drives both engines
through identical random schedules and asserts identical final file
and row state (labels included) on every provider.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from ..core.journal import Journal, JournalCursor, JournalRecord
from ..fs import FsView
from ..labels import Label
from ..net.envelopes import Envelope, EnvelopeChannel, content_digest

from .peering import _row_key

if TYPE_CHECKING:  # pragma: no cover
    from ..platform import Provider
    from .peering import ProviderLink, SyncState


class _SideBooks:
    """Per-(user, side) row bookkeeping: which content keys are live.

    Mirrors what the naive pump's ``existing`` select would see on
    this side — every row whose secrecy label is within the user's
    clearance (exactly her tag, or public) — maintained incrementally
    from the side's journal tail instead of re-selected per round.
    """

    def __init__(self) -> None:
        #: table -> row_id -> content key
        self.key_by_id: dict[str, dict[int, frozenset]] = {}
        #: table -> content key -> live row ids
        self.ids_by_key: dict[str, dict[frozenset, set[int]]] = {}

    def known(self, table: str) -> set[frozenset]:
        """The content keys currently live on this side (the naive
        ``existing`` set)."""
        return set(self.ids_by_key.get(table, ()))

    def ids_for(self, table: str, key: frozenset) -> set[int]:
        return self.ids_by_key.get(table, {}).get(key, set())

    def track(self, table: str, row_id: int, key: frozenset) -> None:
        self.key_by_id.setdefault(table, {})[row_id] = key
        self.ids_by_key.setdefault(table, {}).setdefault(
            key, set()).add(row_id)

    def untrack(self, table: str, row_id: int) -> Optional[frozenset]:
        """Forget a row; returns its key iff no live row covers that
        key any more (i.e. the key truly vanished from this side)."""
        key = self.key_by_id.get(table, {}).pop(row_id, None)
        if key is None:
            return None
        ids = self.ids_by_key.get(table, {})
        holders = ids.get(key)
        if holders is not None:
            holders.discard(row_id)
            if not holders:
                del ids[key]
                return key
        return None

    def drop_table(self, table: str) -> set[frozenset]:
        """The side dropped a whole table; every key vanished."""
        self.key_by_id.pop(table, None)
        return set(self.ids_by_key.pop(table, ()))


class _UserDelta:
    """All per-(user, link) incremental state."""

    def __init__(self) -> None:
        self.cursors: dict[str, Optional[JournalCursor]] = {
            "a": None, "b": None}
        self.books = {"a": _SideBooks(), "b": _SideBooks()}
        #: side -> table -> content keys that vanished from that side
        #: since the last round (deletes, updates-away, table drops);
        #: the pump *into* that side re-fills them from the peer.
        self.vanished: dict[str, dict[str, set[frozenset]]] = {
            "a": {}, "b": {}}

    def mark_vanished(self, side: str, table: str, key: frozenset) -> None:
        self.vanished[side].setdefault(table, set()).add(key)


class _TailWindow:
    """One link side's decoded journal tail, shared by every user.

    ``records`` are the records after ``base``, in order, each decoded
    exactly once; a user's tail is the slice past its cursor.
    ``kept`` is the length right after the last trim: the window is
    trimmed again only once it has doubled since (see
    :meth:`DeltaSync._tail`)."""

    def __init__(self, base: JournalCursor,
                 records: list[JournalRecord]) -> None:
        self.base = base
        self.records = records
        self.kept = len(records)

    def head(self) -> JournalCursor:
        return JournalCursor(self.base.journal_id, self.base.epoch,
                             self.base.seq + len(self.records))


#: A window of at most this many records is never trimmed, so a quiet
#: link does not rescan its users' cursors on every round.
_TRIM_FLOOR = 256


class DeltaSync:
    """The per-link delta engine behind ``FederationConfig.delta_sync``."""

    def __init__(self, link: "ProviderLink") -> None:
        self.link = link
        self._users: dict[str, _UserDelta] = {}
        self._windows: dict[str, Optional[_TailWindow]] = {
            "a": None, "b": None}
        #: One envelope channel per direction; the name encodes the
        #: destination.  File digests cached here are invalidated by
        #: the destination's own journal tail (foreign writes).
        self.channels = {
            "ab": EnvelopeChannel(f"{link.a.name}->{link.b.name}"),
            "ba": EnvelopeChannel(f"{link.b.name}->{link.a.name}"),
        }
        self._stats = {"delta_rounds": 0, "full_recons": 0,
                       "fallback_rounds": 0, "files_reconciled": 0,
                       "rows_shipped": 0}

    # -- public API --------------------------------------------------------

    def sync(self, state: "SyncState") -> int:
        link = self.link
        journal_a = self._journal(link.a)
        journal_b = self._journal(link.b)
        if journal_a is None or journal_b is None:
            # A side without incremental persistence has nothing to
            # tail; every round is the honest full reconciliation.
            self._stats["fallback_rounds"] += 1
            return link._naive_round(state)
        user = self._users.setdefault(state.username, _UserDelta())
        tail_a = self._tail("a", journal_a, user.cursors["a"])
        tail_b = self._tail("b", journal_b, user.cursors["b"])
        if tail_a is None or tail_b is None:
            # First sync, compaction, checkpoint, or crash recovery:
            # the cursor is stale, so run one full content-based
            # reconciliation and mint fresh cursors against the
            # *post-reconciliation* positions (our own writes are
            # already reflected, so they are never echoed back).
            moved = self._full_recon(state, user)
            user.cursors["a"] = journal_a.position()
            user.cursors["b"] = journal_b.position()
            self._stats["full_recons"] += 1
            return moved
        self._stats["delta_rounds"] += 1
        touched: set[str] = set()
        candidates: dict[str, dict[str, set[int]]] = {"a": {}, "b": {}}
        self._ingest(state, user, "a", tail_a, touched, candidates["a"])
        self._ingest(state, user, "b", tail_b, touched, candidates["b"])
        moved = self._reconcile_files(state, sorted(touched))
        moved += self._pump_rows(state, user, "a", "b", candidates["a"])
        moved += self._pump_rows(state, user, "b", "a", candidates["b"])
        user.vanished["a"].clear()
        user.vanished["b"].clear()
        user.cursors["a"] = journal_a.position()
        user.cursors["b"] = journal_b.position()
        return moved

    def invalidate(self) -> None:
        """Drop every cursor, book, and digest cache (a provider was
        replaced under the link): the next round per user is a full
        reconciliation against the new instance.  Known users are kept
        with nulled cursors rather than forgotten, so the link's
        :func:`~repro.obs.fabric_health` staleness gauge shows the
        pending full reconciliation until the next sync round."""
        for user in self._users.values():
            user.cursors["a"] = user.cursors["b"] = None
            user.books = {"a": _SideBooks(), "b": _SideBooks()}
            user.vanished = {"a": {}, "b": {}}
        self._windows = {"a": None, "b": None}
        for channel in self.channels.values():
            channel.clear()

    def stats(self) -> dict[str, Any]:
        out: dict[str, Any] = dict(self._stats)
        for name, channel in self.channels.items():
            for k, v in channel.stats.items():
                out[k] = out.get(k, 0) + v
            out[f"{name}_envelopes_sent"] = channel.stats["envelopes_sent"]
        out["cursor_lag"] = self.cursor_lag()
        return out

    def cursor_lag(self) -> dict[str, dict[str, Optional[int]]]:
        """Per-user records each side has journaled past the link's
        cursor (``None`` = no valid cursor yet)."""
        lag: dict[str, dict[str, Optional[int]]] = {}
        for username, user in self._users.items():
            entry: dict[str, Optional[int]] = {}
            for side, provider in (("a", self.link.a), ("b", self.link.b)):
                journal = self._journal(provider)
                cursor = user.cursors[side]
                entry[side] = journal.seq - cursor.seq \
                    if journal is not None and journal.honors(cursor) \
                    else None
            lag[username] = entry
        return lag

    # -- internals ---------------------------------------------------------

    def _tail(self, side: str, journal: Journal,
              cursor: Optional[JournalCursor]
              ) -> Optional[list[JournalRecord]]:
        """The records past ``cursor`` on one side (``None`` when the
        journal does not honor it), as a slice of the side's shared
        window.

        The window is extended with only the records no earlier round
        decoded.  When it cannot serve the cursor (first use, a reset
        or replaced journal), it restarts at the oldest cursor the
        journal honors.  Once it has doubled since the last trim, it
        drops the records every honored cursor has passed, so it holds
        about one pass of records however many users share it."""
        if not journal.honors(cursor):
            return None
        window = self._windows[side]
        fresh = None
        if window is not None and cursor.seq >= window.base.seq:
            fresh = journal.tail_from(window.head())
        if fresh is None:
            base = self._oldest_cursor(side, journal)
            window = self._windows[side] = _TailWindow(
                base, journal.tail_from(base))
        else:
            window.records += fresh
            if len(window.records) > max(2 * window.kept, _TRIM_FLOOR):
                oldest = self._oldest_cursor(side, journal)
                del window.records[:oldest.seq - window.base.seq]
                window.base = oldest
                window.kept = len(window.records)
        return window.records[cursor.seq - window.base.seq:]

    def _oldest_cursor(self, side: str, journal: Journal) -> JournalCursor:
        """The least cursor on ``side`` that ``journal`` honors (the
        caller's own cursor is among them, so one always exists)."""
        return min((user.cursors[side] for user in self._users.values()
                    if journal.honors(user.cursors[side])),
                   key=lambda cursor: cursor.seq)

    @staticmethod
    def _journal(provider: "Provider") -> Optional[Journal]:
        manager = provider._durability
        return None if manager is None else manager.journal

    def _provider(self, side: str) -> "Provider":
        return self.link.a if side == "a" else self.link.b

    def _channel_into(self, side: str) -> EnvelopeChannel:
        """The channel whose *destination* is ``side``."""
        return self.channels["ab" if side == "b" else "ba"]

    def _transfer(self, channel: EnvelopeChannel,
                  envelopes: list[Envelope],
                  apply: Callable[[Envelope], None],
                  dst_side: str) -> int:
        """Run ``channel.transfer_batch`` with the right tracer wiring.

        The ``fed.sync`` root span lives on side A's tracer (peering
        opens it there).  When the destination *is* side A the
        ``fed.envelope`` span nests inline; when it's side B — a
        different provider with its own tracer — the root's
        :class:`~repro.obs.TraceContext` crosses the link so the
        destination-side span is captured as a skeleton and grafted
        back under ``fed.sync`` (M16 trace propagation)."""
        root_tracer = self.link.a.tracer
        dst_tracer = self._provider(dst_side).tracer
        if dst_side == "a" or not dst_tracer.enabled:
            return channel.transfer_batch(envelopes, apply,
                                          tracer=root_tracer)
        ctx = root_tracer.export_context() if root_tracer.enabled else None
        return channel.transfer_batch(
            envelopes, apply, tracer=dst_tracer, ctx=ctx,
            graft=root_tracer.graft if ctx is not None else None)

    def _full_recon(self, state: "SyncState", user: _UserDelta) -> int:
        """The naive twin, plus bookkeeping rebuild: after it, books
        and digest caches describe the converged state exactly."""
        link = self.link
        moved = link._naive_round(state)
        username = state.username
        for side in ("a", "b"):
            provider = self._provider(side)
            books = user.books[side] = _SideBooks()
            tag_id = provider.account(username).data_tag.tag_id
            for table_name in provider.db.tables():
                table = provider.db.table(table_name)
                for row in table.rows.values():
                    if {t.tag_id for t in row.slabel} <= {tag_id}:
                        books.track(table_name, row.row_id,
                                    _row_key(row.values))
        user.vanished["a"].clear()
        user.vanished["b"].clear()
        # Prime the digest caches from the converged file state: one
        # agent-checked read per file per side, the same cost the
        # reconciliation itself just paid.
        for side in ("a", "b"):
            provider = self._provider(side)
            channel = self._channel_into(side)
            channel.clear()
            agent = link._agent(provider, username)
            try:
                fs = FsView(provider.fs, agent)
                home = f"/users/{username}"
                for name in fs.listdir(home):
                    path = f"{home}/{name}"
                    if not fs.stat(path)["is_dir"]:
                        channel.note(path, content_digest(fs.read(path)))
            finally:
                provider.kernel.exit(agent)
        return moved

    def _ingest(self, state: "SyncState", user: _UserDelta, side: str,
                tail: list[JournalRecord], touched: set[str],
                candidates: dict[str, set[int]]) -> None:
        """Fold one side's journal tail into dirty sets + bookkeeping.

        Tail payloads are treated strictly as pointers: rows are
        re-resolved against the side's *live* table so a row created
        and deleted inside the window never ships, and an updated row
        ships its current content exactly once.  The records are the
        side's shared window, so ``record.data`` is only ever read.
        """
        username = state.username
        provider = self._provider(side)
        books = user.books[side]
        into_side = self._channel_into(side)
        data_tag = provider.account(username).data_tag
        tag_id = data_tag.tag_id
        user_slabel = Label([data_tag])
        home = f"/users/{username}/"
        for record in tail:
            op = record.op
            data = record.data
            if op in ("fs.create", "fs.write", "fs.delete"):
                path = data["path"]
                if path.startswith(home) and "/" not in path[len(home):]:
                    touched.add(path)
                    # this side's content changed behind the cache
                    into_side.forget(path)
            elif op == "db.insert":
                if not set(data["slabel"]) <= {tag_id}:
                    continue  # invisible to the user's agent
                table_name = data["table"]
                row = self._live_row(provider, table_name, data["row_id"])
                if row is None:
                    continue  # born and deleted inside the window
                if not {t.tag_id for t in row.slabel} <= {tag_id}:
                    continue  # the record's label was not the row's
                books.track(table_name, row.row_id, _row_key(row.values))
                if row.slabel == user_slabel:
                    candidates.setdefault(table_name, set()).add(row.row_id)
            elif op == "db.update":
                table_name = data["table"]
                tracked = books.key_by_id.get(table_name, {})
                for row_id in data["rows"]:
                    old_key = tracked.get(row_id)
                    if old_key is None:
                        continue  # a row the user's agent cannot see
                    row = self._live_row(provider, table_name, row_id)
                    if row is None:
                        continue  # its delete record follows
                    new_key = _row_key(row.values)
                    if new_key != old_key:
                        gone = books.untrack(table_name, row_id)
                        if gone is not None:
                            user.mark_vanished(side, table_name, gone)
                        books.track(table_name, row_id, new_key)
                    if row.slabel == user_slabel:
                        candidates.setdefault(table_name, set()).add(row_id)
            elif op in ("db.delete", "db.purge"):
                table_name = data["table"]
                for row_id in data["rows"]:
                    gone = books.untrack(table_name, row_id)
                    if gone is not None:
                        user.mark_vanished(side, table_name, gone)
            elif op == "db.drop_table":
                for key in books.drop_table(data["name"]):
                    user.mark_vanished(side, data["name"], key)

    @staticmethod
    def _live_row(provider: "Provider", table_name: str, row_id: int):
        if table_name not in provider.db.tables():
            return None
        return provider.db.table(table_name).rows.get(row_id)

    # -- file reconciliation ----------------------------------------------

    def _reconcile_files(self, state: "SyncState",
                         paths: Iterable[str]) -> int:
        """Content-reconcile exactly the touched paths, A first.

        Semantics per path match the naive pump pair: both present and
        different → A wins; present on one side only → copied to the
        other (deletions resurrect); directories are never synced.
        """
        paths = list(paths)
        if not paths:
            return 0
        link = self.link
        username = state.username
        agent_a = link._agent(link.a, username)
        agent_b = link._agent(link.b, username)
        moved = 0
        try:
            fs_a = FsView(link.a.fs, agent_a)
            fs_b = FsView(link.b.fs, agent_b)
            channel_ab = self.channels["ab"]
            channel_ba = self.channels["ba"]
            ship_ab: list[Envelope] = []
            ship_ba: list[Envelope] = []
            for path in paths:
                a_has = fs_a.exists(path) and not fs_a.stat(path)["is_dir"]
                b_has = fs_b.exists(path) and not fs_b.stat(path)["is_dir"]
                if a_has:
                    data_a = fs_a.read(path)
                    digest_a = content_digest(data_a)
                    channel_ba.note(path, digest_a)
                    envelope = Envelope("file", path, digest_a, data_a)
                    if b_has:
                        if channel_ab.dedup(envelope):
                            continue  # destination provably unchanged
                        if fs_b.read(path) != data_a:
                            ship_ab.append(envelope)
                        else:
                            channel_ab.note(path, digest_a)
                    else:
                        ship_ab.append(envelope)
                elif b_has:
                    data_b = fs_b.read(path)
                    digest_b = content_digest(data_b)
                    channel_ab.note(path, digest_b)
                    ship_ba.append(Envelope("file", path, digest_b, data_b))
            moved += self._transfer(
                channel_ab, ship_ab,
                lambda e: self._apply_file(fs_b, e, state), "b")
            moved += self._transfer(
                channel_ba, ship_ba,
                lambda e: self._apply_file(fs_a, e, state), "a")
        finally:
            link.a.kernel.exit(agent_a)
            link.b.kernel.exit(agent_b)
        self._stats["files_reconciled"] += len(paths)
        return moved

    @staticmethod
    def _apply_file(fs: FsView, envelope: Envelope,
                    state: "SyncState") -> None:
        if fs.exists(envelope.key):
            fs.write(envelope.key, envelope.payload)
        else:
            fs.create(envelope.key, envelope.payload)
        state.transfers += 1

    # -- row mirroring -----------------------------------------------------

    def _pump_rows(self, state: "SyncState", user: _UserDelta,
                   src_side: str, dst_side: str,
                   candidates: dict[str, set[int]]) -> int:
        """Mirror dirty rows src → dst (append-only, like the naive
        twin): candidates from the source tail plus re-fills for keys
        that vanished from the destination, all checked against the
        destination's pre-round visible-key snapshot."""
        link = self.link
        username = state.username
        src = self._provider(src_side)
        dst = self._provider(dst_side)
        src_books = user.books[src_side]
        dst_books = user.books[dst_side]
        vanished_dst = user.vanished[dst_side]
        tables = sorted(set(candidates)
                        | {t for t, keys in vanished_dst.items() if keys})
        if not tables:
            return 0
        src_tag = src.account(username).data_tag
        user_slabel = Label([src_tag])
        channel = self._channel_into(dst_side)
        moved = 0
        src_agent = link._agent(src, username)
        dst_agent = link._agent(dst, username)
        try:
            for table_name in tables:
                if table_name not in src.db.tables():
                    continue  # nothing to re-fill from
                table = src.db.table(table_name)
                known_dst = dst_books.known(table_name)
                row_ids = set(candidates.get(table_name, ()))
                for key in vanished_dst.get(table_name, ()):
                    row_ids |= src_books.ids_for(table_name, key)
                envelopes: list[Envelope] = []
                for row_id in sorted(row_ids):
                    row = table.rows.get(row_id)
                    if row is None or row.slabel != user_slabel:
                        continue
                    if _row_key(row.values) in known_dst:
                        continue
                    values = dict(row.values)
                    envelopes.append(Envelope(
                        "row", table_name, content_digest(values), values))
                if not envelopes:
                    continue
                if table_name not in dst.db.tables():
                    dst.db.create_table(dst_agent, table_name,
                                        indexes=table.indexed_columns)

                def apply(envelope: Envelope, _table=table_name) -> None:
                    row_id = dst.db.insert(dst_agent, _table,
                                           envelope.payload)
                    dst_books.track(_table, row_id,
                                    _row_key(envelope.payload))
                    state.transfers += 1

                moved += self._transfer(channel, envelopes, apply,
                                        dst_side)
        finally:
            src.kernel.exit(src_agent)
            dst.kernel.exit(dst_agent)
        self._stats["rows_shipped"] += moved
        return moved
