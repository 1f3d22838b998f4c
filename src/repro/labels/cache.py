"""The fast-path label engine: memoized flow decisions.

Every request in the reproduction funnels through the reference
monitor, so the label checks in :mod:`repro.labels.flow` are *the* hot
path.  Flume (Krohn et al., SOSP 2007) kept per-message checks cheap by
exploiting label immutability; this module is that optimization for W5:
since :class:`~repro.labels.label.Label` and
:class:`~repro.labels.capabilities.CapabilitySet` are immutable and
interned, every pure decision — ``can_flow``, label-change legality,
endpoint reach, export residue — is a function of its (identity-
comparable) arguments and can be memoized forever.

Two layers
----------

* **Pure memos** key on the interned argument tuples.  These entries
  can never go stale: the inputs are immutable values, so a recorded
  verdict is a theorem, not a snapshot.  They are bounded (clear-on-
  overflow) purely to cap memory.

* **Subject verdicts** cache storage read/write decisions *per
  subject* (a kernel process) so a database scan or directory walk
  re-checks each distinct (secrecy, integrity) row label pair once.
  Subjects are mutable — their labels and capabilities change through
  kernel syscalls — so this layer is guarded twice:

  - every subject entry records the subject's ``label_epoch`` (bumped
    by :class:`~repro.kernel.process.Process` on *any* label or
    capability assignment) and is discarded on mismatch, and
  - the kernel's label-change syscalls call
    :meth:`FlowCache.invalidate_subject` explicitly, which also keeps
    the invalidation observable in :meth:`stats`.

  The classic cache-poisoning bug — serving a verdict recorded under
  labels the process no longer has — is impossible under either guard
  alone; we keep both because the epoch also protects against trusted
  code mutating a process outside the syscall surface.

Semantics are preserved exactly: a cached *allow* replays a decision
computed by the very functions in :mod:`repro.labels.flow`, and every
*deny* on a raising path is re-derived uncached so diagnostics (which
name the offending tags) are byte-identical.  The differential property
test in ``tests/kernel/test_cache_differential.py`` drives cached and
uncached kernels through identical histories and asserts every
allow/deny matches.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Optional, Protocol

from . import flow
from .capabilities import CapabilitySet
from .label import Label

#: Signature of the optional latency observer: (category, seconds).
LatencyObserver = Callable[[str, float], None]


class Subject(Protocol):
    """What the subject-verdict layer needs from a kernel process."""

    pid: int
    label_epoch: int
    slabel: Label
    ilabel: Label
    caps: CapabilitySet


class _SubjectEntry:
    """Cached storage verdicts for one subject at one label epoch."""

    __slots__ = ("epoch", "read", "write")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.read: dict[tuple[Label, Label], bool] = {}
        self.write: dict[tuple[Label, Label], bool] = {}


class FlowCache:
    """Memoization layer over the trusted decision procedure.

    One instance per :class:`~repro.kernel.Kernel`.  ``enabled=False``
    turns every method into a pass-through recomputation — the
    differential tests and the before/after benchmarks use this to
    compare cached and uncached behaviour on the same code path.

    ``max_entries`` bounds each pure memo table; on overflow the table
    is cleared (O(1) amortized, no LRU bookkeeping on the hot path).
    """

    def __init__(self, enabled: bool = True, max_entries: int = 65536,
                 observer: Optional[LatencyObserver] = None) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        #: Optional latency sink, set by Metrics.attach_flow_cache.
        self.observer = observer
        # pure memos
        self._secrecy: dict[tuple, bool] = {}
        self._integrity: dict[tuple, bool] = {}
        self._message: dict[tuple, bool] = {}
        self._change: dict[tuple, bool] = {}
        self._endpoint: dict[tuple, bool] = {}
        self._residue: dict[tuple, Label] = {}
        # subject verdicts
        self._subjects: dict[int, _SubjectEntry] = {}
        # observability
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}
        self._invalidations: dict[str, int] = {}
        self._stale_drops = 0
        self._evictions = 0
        #: Bumped by every :meth:`invalidate_all`.  Derived caches that
        #: sit on top of this one (the kernel's compiled
        #: TransitionCache, M14) compare generations instead of
        #: registering callbacks.
        self.generation = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _hit(self, category: str) -> None:
        self._hits[category] = self._hits.get(category, 0) + 1

    def _miss(self, category: str) -> None:
        self._misses[category] = self._misses.get(category, 0) + 1

    def _bound(self, table: dict) -> None:
        if len(table) >= self.max_entries:
            table.clear()
            self._evictions += 1

    def _observed(self, category: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn``, reporting its latency to the attached observer.

        Used by the raising/consumer-facing checks so Metrics can track
        per-category flow-check latency; zero overhead beyond one
        attribute test when no observer is attached.
        """
        obs = self.observer
        if obs is None:
            return fn()
        t0 = perf_counter()
        try:
            return fn()
        finally:
            obs(category, perf_counter() - t0)

    def _memo(self, table: dict, key: tuple, category: str,
              compute: Callable[[], Any]) -> Any:
        cached = table.get(key)
        if cached is not None:
            self._hit(category)
            return cached
        self._miss(category)
        value = compute()
        self._bound(table)
        table[key] = value
        return value

    # ------------------------------------------------------------------
    # pure memos (immutable inputs: entries never go stale)
    # ------------------------------------------------------------------

    def can_flow_secrecy(self, s_from: Label, s_to: Label,
                         d_from: CapabilitySet = CapabilitySet.EMPTY,
                         d_to: CapabilitySet = CapabilitySet.EMPTY,
                         category: str = "flow") -> bool:
        if not self.enabled:
            return flow.can_flow_secrecy(s_from, s_to, d_from, d_to)
        key = (s_from, s_to, d_from, d_to)
        cached = self._secrecy.get(key)
        if cached is not None:
            self._hit(category)
            return cached
        self._miss(category)
        value = flow.can_flow_secrecy(s_from, s_to, d_from, d_to)
        self._bound(self._secrecy)
        self._secrecy[key] = value
        return value

    def can_flow_integrity(self, i_from: Label, i_to: Label,
                           d_from: CapabilitySet = CapabilitySet.EMPTY,
                           d_to: CapabilitySet = CapabilitySet.EMPTY,
                           category: str = "flow") -> bool:
        if not self.enabled:
            return flow.can_flow_integrity(i_from, i_to, d_from, d_to)
        key = (i_from, i_to, d_from, d_to)
        cached = self._integrity.get(key)
        if cached is not None:
            self._hit(category)
            return cached
        self._miss(category)
        value = flow.can_flow_integrity(i_from, i_to, d_from, d_to)
        self._bound(self._integrity)
        self._integrity[key] = value
        return value

    def can_flow(self, s_from: Label, i_from: Label, s_to: Label,
                 i_to: Label, d_from: CapabilitySet = CapabilitySet.EMPTY,
                 d_to: CapabilitySet = CapabilitySet.EMPTY,
                 category: str = "ipc") -> bool:
        """Memoized combined safe-message check (the IPC hot path)."""
        if not self.enabled:
            return flow.can_flow(s_from, i_from, s_to, i_to, d_from, d_to)
        key = (s_from, i_from, s_to, i_to, d_from, d_to)
        cached = self._message.get(key)
        if cached is not None:
            self._hit(category)
            return cached
        self._miss(category)
        value = flow.can_flow(s_from, i_from, s_to, i_to, d_from, d_to)
        self._bound(self._message)
        self._message[key] = value
        return value

    def check_flow(self, s_from: Label, i_from: Label, s_to: Label,
                   i_to: Label, d_from: CapabilitySet = CapabilitySet.EMPTY,
                   d_to: CapabilitySet = CapabilitySet.EMPTY,
                   what: str = "message", category: str = "ipc") -> None:
        """Raising variant: allows ride the memo; denials re-derive the
        precise :class:`SecrecyViolation`/:class:`IntegrityViolation`
        (with the offending tag ids) through the uncached path, so the
        diagnostics are identical to a cache-free kernel's."""
        if self.observer is not None:
            allowed = self._observed(category, lambda: self.can_flow(
                s_from, i_from, s_to, i_to, d_from, d_to, category=category))
        else:
            allowed = self.can_flow(s_from, i_from, s_to, i_to, d_from, d_to,
                                    category=category)
        if allowed:
            return
        flow.check_flow(s_from, i_from, s_to, i_to, d_from, d_to, what=what)
        raise AssertionError(
            f"flow cache and decision procedure disagree on {what}")

    def label_change_allowed(self, old: Label, new: Label,
                             caps: CapabilitySet,
                             category: str = "label_change") -> bool:
        if not self.enabled:
            return flow.label_change_allowed(old, new, caps)
        return self._memo(self._change, (old, new, caps), category,
                          lambda: flow.label_change_allowed(old, new, caps))

    def check_label_change(self, old: Label, new: Label, caps: CapabilitySet,
                           what: str = "label",
                           category: str = "label_change") -> None:
        """Raising variant of :meth:`label_change_allowed` (same
        deny-recompute discipline as :meth:`check_flow`)."""
        if self.label_change_allowed(old, new, caps, category=category):
            return
        flow.check_label_change(old, new, caps, what=what)
        raise AssertionError(
            f"flow cache and decision procedure disagree on {what}")

    def endpoint_legal(self, declared_s: Label, declared_i: Label,
                       subj_s: Label, subj_i: Label, caps: CapabilitySet,
                       category: str = "endpoint") -> bool:
        """Memoized endpoint-declaration legality (both axes)."""
        if not self.enabled:
            return (flow.endpoint_label_legal(declared_s, subj_s, caps)
                    and flow.endpoint_label_legal(declared_i, subj_i, caps))
        return self._memo(
            self._endpoint, (declared_s, declared_i, subj_s, subj_i, caps),
            category,
            lambda: (flow.endpoint_label_legal(declared_s, subj_s, caps)
                     and flow.endpoint_label_legal(declared_i, subj_i, caps)))

    def exportable_residue(self, s: Label, caps: CapabilitySet,
                           category: str = "export") -> Label:
        """Memoized :func:`repro.labels.flow.exportable_tags` — the
        gateway/email perimeter check."""
        if self.observer is not None:
            return self._observed(category, lambda: self._exportable_residue(
                s, caps, category))
        return self._exportable_residue(s, caps, category)

    def _exportable_residue(self, s: Label, caps: CapabilitySet,
                            category: str) -> Label:
        if not self.enabled:
            return flow.exportable_tags(s, caps)
        return self._memo(self._residue, (s, caps), category,
                          lambda: flow.exportable_tags(s, caps))

    # ------------------------------------------------------------------
    # subject verdicts (mutable subjects: epoch-guarded + invalidated)
    # ------------------------------------------------------------------

    def _subject_entry(self, subject: Subject) -> _SubjectEntry:
        entry = self._subjects.get(subject.pid)
        epoch = subject.label_epoch
        if entry is None or entry.epoch != epoch:
            if entry is not None:
                self._stale_drops += 1
            entry = _SubjectEntry(epoch)
            self._subjects[subject.pid] = entry
        return entry

    def readable(self, subject: Subject, slabel: Label, ilabel: Label,
                 category: str = "read") -> bool:
        """Cached storage read verdict (files and rows share the rule)."""
        if self.observer is not None:
            return self._observed(category, lambda: self._readable(
                subject, slabel, ilabel, category))
        return self._readable(subject, slabel, ilabel, category)

    def _readable(self, subject: Subject, slabel: Label, ilabel: Label,
                  category: str) -> bool:
        if not self.enabled:
            return flow.can_read(slabel, ilabel, subject.slabel,
                                 subject.ilabel, subject.caps)
        entry = self._subject_entry(subject)
        key = (slabel, ilabel)
        cached = entry.read.get(key)
        if cached is not None:
            self._hit(category)
            return cached
        self._miss(category)
        value = flow.can_read(slabel, ilabel, subject.slabel,
                              subject.ilabel, subject.caps)
        if len(entry.read) >= self.max_entries:
            entry.read.clear()
            self._evictions += 1
        entry.read[key] = value
        return value

    def writable(self, subject: Subject, slabel: Label, ilabel: Label,
                 category: str = "write") -> bool:
        """Cached storage write verdict."""
        if self.observer is not None:
            return self._observed(category, lambda: self._writable(
                subject, slabel, ilabel, category))
        return self._writable(subject, slabel, ilabel, category)

    def _writable(self, subject: Subject, slabel: Label, ilabel: Label,
                  category: str) -> bool:
        if not self.enabled:
            return flow.can_write(slabel, ilabel, subject.slabel,
                                  subject.ilabel, subject.caps)
        entry = self._subject_entry(subject)
        key = (slabel, ilabel)
        cached = entry.write.get(key)
        if cached is not None:
            self._hit(category)
            return cached
        self._miss(category)
        value = flow.can_write(slabel, ilabel, subject.slabel,
                               subject.ilabel, subject.caps)
        if len(entry.write) >= self.max_entries:
            entry.write.clear()
            self._evictions += 1
        entry.write[key] = value
        return value

    # ------------------------------------------------------------------
    # batched subject verdicts (the partition-scan fast path)
    # ------------------------------------------------------------------

    def readable_many(self, subject: Subject,
                      pairs: "list[tuple[Label, Label]]",
                      category: str = "read"
                      ) -> dict[tuple[Label, Label], bool]:
        """Resolve read verdicts for many (slabel, ilabel) pairs at once.

        Semantically identical to calling :meth:`readable` per pair,
        but the subject entry (and its epoch guard) is fetched once for
        the whole batch — this is what the label-partitioned storage
        engine calls with one pair per *partition*, so a scan's label
        cost is O(distinct labels), not O(rows).
        """
        if self.observer is not None:
            return self._observed(category, lambda: self._many(
                subject, pairs, category))
        return self._many(subject, pairs, category)

    def _many(self, subject: Subject, pairs, category: str
              ) -> dict[tuple[Label, Label], bool]:
        decide = flow.can_read
        if not self.enabled:
            return {key: decide(key[0], key[1], subject.slabel,
                                subject.ilabel, subject.caps)
                    for key in pairs}
        entry = self._subject_entry(subject)
        table = entry.read
        out: dict[tuple[Label, Label], bool] = {}
        for key in pairs:
            cached = table.get(key)
            if cached is None:
                self._miss(category)
                cached = decide(key[0], key[1], subject.slabel,
                                subject.ilabel, subject.caps)
                if len(table) >= self.max_entries:
                    table.clear()
                    self._evictions += 1
                table[key] = cached
            else:
                self._hit(category)
            out[key] = cached
        return out

    # ------------------------------------------------------------------
    # invalidation (fired by kernel label-change syscalls)
    # ------------------------------------------------------------------

    def invalidate_subject(self, pid: int,
                           reason: str = "label-change") -> None:
        """Evict every cached verdict for ``pid``.

        The kernel calls this from every syscall that changes a
        process's labels or capabilities (``change_label``,
        ``create_tag``, ``drop_caps``, capability delegation on
        ``receive``) and from process exit.  The epoch guard would
        already refuse stale entries; the explicit hook reclaims the
        memory and makes invalidation observable in :meth:`stats`.
        """
        if self._subjects.pop(pid, None) is not None:
            self._invalidations[reason] = \
                self._invalidations.get(reason, 0) + 1

    def invalidate_all(self, reason: str = "explicit") -> None:
        """Drop everything — pure memos included.  Only needed when tag
        *identity* is rewired underneath the kernel (registry restore);
        ordinary label changes never require it."""
        self._secrecy.clear()
        self._integrity.clear()
        self._message.clear()
        self._change.clear()
        self._endpoint.clear()
        self._residue.clear()
        self._subjects.clear()
        self.generation += 1
        self._invalidations[reason] = self._invalidations.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters for metrics/benchmarks (see
        :meth:`repro.core.metrics.Metrics.cache_snapshot`)."""
        return {
            "hits": dict(self._hits),
            "misses": dict(self._misses),
            "invalidations": dict(self._invalidations),
            "hit_total": sum(self._hits.values()),
            "miss_total": sum(self._misses.values()),
            "invalidation_total": sum(self._invalidations.values()),
            "stale_drops": self._stale_drops,
            "evictions": self._evictions,
            "entries": (len(self._secrecy) + len(self._integrity)
                        + len(self._message) + len(self._change)
                        + len(self._endpoint) + len(self._residue)
                        + sum(len(e.read) + len(e.write)
                              for e in self._subjects.values())),
            "enabled": self.enabled,
        }

    def hit_rate(self) -> float:
        hits = sum(self._hits.values())
        total = hits + sum(self._misses.values())
        return hits / total if total else 0.0
