"""Audit log: the kernel's append-only record of security decisions.

W5 argues (§2) that users must be able to hold the provider to account;
the audit log is the mechanism.  Every flow decision, label change,
spawn, grant, and export attempt is recorded — allowed or denied — so
tests and benchmarks can assert not just on outcomes but on the
decisions that produced them.

The log is deliberately outside the label system: audit records are
provider-private and never flow back to applications.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator, Optional, Union

#: Event categories, used for filtering.
SPAWN = "spawn"
EXIT = "exit"
SEND = "send"
RECEIVE = "receive"
LABEL_CHANGE = "label_change"
GRANT = "grant"
TAG_CREATE = "tag_create"
ENDPOINT = "endpoint"
FILE_READ = "file_read"
FILE_WRITE = "file_write"
DB_QUERY = "db_query"
EXPORT = "export"
DECLASSIFY = "declassify"
RESOURCE = "resource"


class AuditEvent:
    """One security decision.

    A hand-rolled ``__slots__`` class rather than a dataclass: events
    are constructed several times per request, and skipping the
    generated ``__init__`` indirection is measurable on the hot path.
    Equality ignores ``extra`` (diagnostic payload, not identity), the
    same semantics the earlier frozen-dataclass spelling had.

    ``detail`` may be recorded in deferred form: an interned
    %-template plus an ``args`` tuple of immutable values (strings,
    ints, interned labels).  The rendered string is produced on first
    access and cached — queries, equality, hashing, and ``repr`` all
    force it, so observable bytes are identical to eager formatting;
    only the *when* of the ``%`` call moves off the hot path.
    ``extra`` is likewise allocated on first access, so events with no
    diagnostic payload never carry an empty dict.
    """

    __slots__ = ("seq", "category", "allowed", "subject",
                 "_detail", "_args", "_extra")

    def __init__(self, seq: int, category: str, allowed: bool,
                 subject: str, detail: str,
                 extra: Optional[dict[str, Any]] = None,
                 args: Optional[tuple] = None) -> None:
        self.seq = seq
        self.category = category
        self.allowed = allowed
        self.subject = subject          # acting process name (or "gateway")
        self._detail = detail
        self._args = args
        self._extra = extra

    @property
    def detail(self) -> str:
        args = self._args
        if args is not None:
            self._detail = self._detail % args
            self._args = None
        return self._detail

    @property
    def extra(self) -> dict[str, Any]:
        extra = self._extra
        if extra is None:
            extra = self._extra = {}
        return extra

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AuditEvent):
            return NotImplemented
        return (self.seq == other.seq
                and self.category == other.category
                and self.allowed == other.allowed
                and self.subject == other.subject
                and self.detail == other.detail)

    def __hash__(self) -> int:
        return hash((self.seq, self.category, self.allowed,
                     self.subject, self.detail))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "ALLOW" if self.allowed else "DENY"
        return f"[{self.seq}] {verdict} {self.category} {self.subject}: {self.detail}"


class AuditLog:
    """Append-only event log with simple query helpers.

    ``max_events`` turns the log into a bounded ring: once the limit is
    reached the oldest events are discarded and counted in
    :attr:`dropped`.  Counters derived through :meth:`subscribe` (e.g.
    :class:`~repro.core.metrics.Metrics`) see every event regardless —
    only the *retained* history is bounded, which is what keeps long
    benchmark runs (the M8 scaling loads) from accumulating unbounded
    memory.  ``capacity`` is the older spelling of the same knob.

    ``category_index`` (default on) maintains one deque per category so
    :meth:`events(category=...)` walks only that category's events
    instead of re-scanning the whole ring — the trace correlator and
    Metrics-heavy tests issue the same filtered query hundreds of
    times.  Eviction order is global-FIFO, so the ring's evicted event
    is always the leftmost entry of its category deque: maintenance is
    O(1) per record and the indexed answer is behavior-identical to the
    scan (``tests/kernel/test_audit_index.py`` pins the equivalence).

    ``trace_source``, when set (the provider installs its ``Tracer``
    in tracing mode), is any object exposing a ``current`` span
    attribute (``.trace.trace_id`` / ``.span_id``); every record
    stamps the active ``trace_id``/``span_id`` into
    ``AuditEvent.extra`` — the correlation hook that ties audit lines
    to request span trees (see :mod:`repro.obs`).  An attribute read
    instead of a callback keeps the stamp to two loads on the hot
    path.
    """

    def __init__(self, capacity: Optional[int] = None,
                 max_events: Optional[int] = None,
                 category_index: bool = True,
                 lazy: bool = True) -> None:
        self._capacity = max_events if max_events is not None else capacity
        # a deque ring evicts in O(1); the unbounded log stays a list
        self._events: Union[list[AuditEvent], deque[AuditEvent]] = (
            deque(maxlen=self._capacity) if self._capacity is not None
            else [])
        self._seq = 0
        #: Events discarded by the ring bound (0 while unbounded).
        self.dropped = 0
        self._subscribers: list[Callable[[AuditEvent], None]] = []
        self._indexed = category_index
        #: When False, :meth:`record_lazy` renders templates eagerly —
        #: the M14 naive opt-out, byte-identical either way.
        self.lazy = lazy
        # Fused per-category state: category -> [index deque (or None
        # when unindexed), n_allowed, n_denied].  One dict probe per
        # append covers both the category index and the O(1) counters
        # (the pre-fusion layout probed three dicts per record).
        self._cats: dict[str, list] = {}
        self._n_allowed = 0
        self._n_denied = 0
        #: Optional tracer-like object whose ``current`` attribute is
        #: the active span (or None); stamped into every event's
        #: ``extra`` while a traced request is active.
        self.trace_source: Optional[Any] = None

    @property
    def max_events(self) -> Optional[int]:
        """The ring bound (None = unbounded)."""
        return self._capacity

    def record(self, category: str, allowed: bool, subject: str,
               detail: str, **extra: Any) -> AuditEvent:
        """Append an event and notify subscribers."""
        return self._append(category, allowed, subject, detail,
                            extra if extra else None, None)

    def record_lazy(self, category: str, allowed: bool, subject: str,
                    template: str, args: Optional[tuple] = None,
                    extra: Optional[dict[str, Any]] = None) -> AuditEvent:
        """Append an event whose detail is ``template % args``.

        The hot-path spelling of :meth:`record`: no kwargs dict, no
        ``%`` call, no ``extra`` allocation unless a trace is active or
        the caller supplied one.  ``args`` values must be immutable (or
        interned) so the deferred render is byte-identical to an eager
        one.  With :attr:`lazy` off the template is rendered here —
        the differential suites prove both spellings emit the same
        bytes.
        """
        if not self.lazy:
            # The naive twin reproduces the pre-M14 call shape exactly:
            # render eagerly, then enter through the public record()
            # with the diagnostic payload spread as keyword arguments —
            # that is what every call site did before the lazy path
            # existed, and it is the cost the M14 benchmark holds up as
            # its baseline.
            if args is not None:
                template = template % args
            if extra:
                return self.record(category, allowed, subject, template,
                                   **extra)
            return self.record(category, allowed, subject, template)
        if self.trace_source is not None:
            return self._append(category, allowed, subject, template,
                                extra, args)
        # Inlined append — the M14 fast path.  No trace stamp, no render: one dict probe maintains index and counters.
        self._seq += 1
        event = AuditEvent(self._seq, category, allowed, subject, template,
                           extra, args)
        events = self._events
        cats = self._cats
        if self._capacity is not None and len(events) == self._capacity:
            self.dropped += 1  # the append below evicts the oldest
            victim = events[0]
            vcat = cats[victim.category]
            if vcat[0] is not None:
                vcat[0].popleft()
            if victim.allowed:
                vcat[1] -= 1
                self._n_allowed -= 1
            else:
                vcat[2] -= 1
                self._n_denied -= 1
        events.append(event)
        cat = cats.get(category)
        if cat is None:
            cat = cats[category] = [deque() if self._indexed else None, 0, 0]
        if cat[0] is not None:
            cat[0].append(event)
        if allowed:
            cat[1] += 1
            self._n_allowed += 1
        else:
            cat[2] += 1
            self._n_denied += 1
        if self._subscribers:
            for fn in self._subscribers:
                fn(event)
        return event

    def _append(self, category: str, allowed: bool, subject: str,
                detail: str, extra: Optional[dict[str, Any]],
                args: Optional[tuple]) -> AuditEvent:
        ts = self.trace_source
        if ts is not None:
            cur = ts.current
            if cur is not None:
                if extra is None:
                    extra = {}
                extra["trace_id"] = cur.trace.trace_id
                extra["span_id"] = cur.span_id
        self._seq += 1
        event = AuditEvent(self._seq, category, allowed, subject, detail,
                           extra, args)
        events = self._events
        cats = self._cats
        if self._capacity is not None and len(events) == self._capacity:
            self.dropped += 1  # the append below evicts the oldest
            # global FIFO eviction: the victim is the leftmost event
            # (and the leftmost entry of its category's deque)
            victim = events[0]
            vcat = cats[victim.category]
            if vcat[0] is not None:
                vcat[0].popleft()
            if victim.allowed:
                vcat[1] -= 1
                self._n_allowed -= 1
            else:
                vcat[2] -= 1
                self._n_denied -= 1
        events.append(event)
        cat = cats.get(category)
        if cat is None:
            cat = cats[category] = [deque() if self._indexed else None, 0, 0]
        if cat[0] is not None:
            cat[0].append(event)
        if allowed:
            cat[1] += 1
            self._n_allowed += 1
        else:
            cat[2] += 1
            self._n_denied += 1
        if self._subscribers:
            for fn in self._subscribers:
                fn(event)
        return event

    def subscribe(self, fn: Callable[[AuditEvent], None]) -> None:
        """Register a callback invoked on every new event."""
        self._subscribers.append(fn)

    # -- queries -----------------------------------------------------------

    @property
    def total_recorded(self) -> int:
        """Events ever recorded, including any the ring discarded."""
        return self._seq

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[AuditEvent]:
        return iter(self._events)

    def events(self, category: Optional[str] = None,
               subject: Optional[str] = None,
               allowed: Optional[bool] = None) -> list[AuditEvent]:
        """Events matching every given filter."""
        if category is not None and self._indexed:
            cat = self._cats.get(category)
            source: Any = cat[0] if cat is not None else ()
            category = None  # already satisfied by the index
        else:
            source = self._events
        out = []
        for e in source:
            if category is not None and e.category != category:
                continue
            if subject is not None and e.subject != subject:
                continue
            if allowed is not None and e.allowed != allowed:
                continue
            out.append(e)
        return out

    def denials(self, category: Optional[str] = None) -> list[AuditEvent]:
        """All denied events, optionally in one category."""
        return self.events(category=category, allowed=False)

    def count(self, category: Optional[str] = None,
              allowed: Optional[bool] = None) -> int:
        """Matching-event count in O(1) from the maintained counters.

        Equivalent to ``len(self.events(category=..., allowed=...))``
        over the retained ring (``tests/kernel/test_audit_index.py``
        pins the equivalence, eviction included).
        """
        if category is None:
            if allowed is None:
                return len(self._events)
            return self._n_allowed if allowed else self._n_denied
        cat = self._cats.get(category)
        if cat is None:
            return 0
        if allowed is None:
            return cat[1] + cat[2]
        return cat[1] if allowed else cat[2]

    def last(self) -> Optional[AuditEvent]:
        return self._events[-1] if self._events else None

    def clear(self) -> None:
        """Drop all events (test convenience; providers would archive)."""
        self._events.clear()
        self._cats.clear()
        self._n_allowed = 0
        self._n_denied = 0
