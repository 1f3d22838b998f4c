"""Metrics: live counters derived from the audit stream.

Benchmarks and operators both want "how many exports were denied this
minute" without scanning the whole audit log.  ``Metrics`` subscribes
to an :class:`~repro.kernel.audit.AuditLog` and keeps running counters
by (category, verdict) and by subject, cheap to read at any time.

It can also observe the kernel's flow cache
(:meth:`attach_flow_cache`): cache hit/miss/invalidation counters ride
along in :meth:`cache_snapshot`, and per-category flow-check latency is
aggregated in :meth:`flow_latency` — this is how EXPERIMENTS.md's
before/after numbers for the fast-path label engine are collected.
Latency aggregation uses :class:`~repro.obs.LatencyHistogram`, so
every category reports p50/p95/p99 estimates alongside the original
count/mean/min/max keys.

Observable *planes* (request plane, data plane, persistence, the
gateway edge) attach through one internal registry — ``attach_foo``
registers the object under a key and ``foo_snapshot`` reads it back,
so adding a plane is two one-liners, not a new field + None-dance.

Purely observational: it never influences a decision, so it sits
outside the trusted base.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Optional, Protocol, runtime_checkable

from ..kernel.audit import AuditEvent, AuditLog
from ..obs import LatencyHistogram

if TYPE_CHECKING:  # pragma: no cover
    from ..labels.cache import FlowCache
    from ..net.gateway import Gateway
    from ..platform.provider import Provider


@runtime_checkable
class FederationStatsSource(Protocol):
    """What :meth:`Metrics.attach_federation` expects (duck-typed).

    Implemented by :class:`~repro.federation.FederationFabric` and
    :class:`~repro.federation.ProviderLink`.  The contract (documented
    in ``docs/OBSERVABILITY.md`` §"The federation_stats contract"):
    ``federation_stats()`` returns a JSON-serializable dict of
    monotonic counters and gauges.  Link-shaped sources carry at least
    ``link``, ``delta_sync``, ``linked_users`` and ``transfers``, plus
    (when the delta engine runs) envelope counters
    (``envelopes_sent``/``envelopes_deduped``/``bytes_moved``) and
    per-user ``cursor_lag``; fabric-shaped sources carry
    ``providers``/``live``/``links`` totals and a ``per_link`` list of
    link-shaped dicts.
    """

    def federation_stats(self) -> dict[str, Any]: ...


class Metrics:
    """Counter aggregation over an audit log (attach once, read often)."""

    def __init__(self, audit: AuditLog) -> None:
        self._by_category: Counter[tuple[str, bool]] = Counter()
        self._by_subject: Counter[str] = Counter()
        self._denials_by_subject: Counter[str] = Counter()
        #: Attached observables, keyed by plane name ("flow_cache",
        #: "request", "data", "persistence", "gateway", ...).
        self._planes: dict[str, Any] = {}
        self._latency: dict[str, LatencyHistogram] = {}
        # fold in anything already logged, then follow the stream
        for event in audit:
            self._ingest(event)
        audit.subscribe(self._ingest)

    def _attach(self, plane: str, obj: Any) -> "Metrics":
        """Register an observable under ``plane``; returns self so
        every ``attach_*`` chains."""
        self._planes[plane] = obj
        return self

    def _ingest(self, event: AuditEvent) -> None:
        self._by_category[(event.category, event.allowed)] += 1
        self._by_subject[event.subject] += 1
        if not event.allowed:
            self._denials_by_subject[event.subject] += 1

    # -- reads ------------------------------------------------------------

    def count(self, category: str, allowed: Optional[bool] = None) -> int:
        if allowed is None:
            return (self._by_category[(category, True)]
                    + self._by_category[(category, False)])
        return self._by_category[(category, allowed)]

    def denial_rate(self, category: str) -> float:
        total = self.count(category)
        if total == 0:
            return 0.0
        return self.count(category, allowed=False) / total

    def busiest_subjects(self, k: int = 5) -> list[tuple[str, int]]:
        return self._by_subject.most_common(k)

    def top_denied_subjects(self, k: int = 5) -> list[tuple[str, int]]:
        return self._denials_by_subject.most_common(k)

    def snapshot(self) -> dict[str, int]:
        """A flat dict (``category.allow``/``category.deny`` keys)."""
        out: dict[str, int] = {}
        for (category, allowed), n in sorted(self._by_category.items()):
            out[f"{category}.{'allow' if allowed else 'deny'}"] = n
        return out

    def category_counts(self) -> dict[tuple[str, bool], int]:
        """The raw ``(category, allowed) -> count`` counters (a copy).
        The merge input of :class:`~repro.obs.FleetRegistry` (M16)."""
        return dict(self._by_category)

    def latency_histograms(self) -> dict[str, LatencyHistogram]:
        """The per-category latency histograms (the dict is a copy;
        the histograms are live — merge *into* a fresh one, as
        :meth:`FleetRegistry.merged_latency` does)."""
        return dict(self._latency)

    # -- one-call attachment ----------------------------------------------

    def attach(self, provider: "Provider") -> "Metrics":
        """Attach every observable plane of ``provider`` in one call:
        the kernel flow cache, the request plane (cap index, authority
        memo, process pool, plan cache), the data plane, the durability
        plane and the gateway edge.  The per-plane ``attach_*`` methods
        remain for deployments observing planes selectively (or planes
        from *different* providers), but one provider, fully observed,
        is just ``Metrics(p.kernel.audit).attach(p)``.

        Federation objects (a ``FederationFabric`` or a single
        ``ProviderLink`` — anything exposing ``federation_stats``)
        attach here too, routed to :meth:`attach_federation`."""
        if hasattr(provider, "federation_stats"):
            return self.attach_federation(provider)
        self.attach_flow_cache(provider.kernel.flow_cache)
        self.attach_request_plane(provider)
        self.attach_data_plane(provider)
        self.attach_persistence(provider)
        self.attach_gateway(provider.gateway)
        return self

    # -- flow-cache observation -------------------------------------------

    def attach_flow_cache(self, cache: "FlowCache") -> "Metrics":
        """Start observing ``cache``: its counters become readable via
        :meth:`cache_snapshot` and every consumer-facing flow check is
        timed into :meth:`flow_latency` (per category: ipc, fs.read,
        fs.write, db.read, db.write, net.export, ...).  Returns self
        for chaining: ``Metrics(k.audit).attach_flow_cache(k.flow_cache)``.
        """
        cache.observer = self._observe_latency
        return self._attach("flow_cache", cache)

    def _observe_latency(self, category: str, seconds: float) -> None:
        stat = self._latency.get(category)
        if stat is None:
            stat = self._latency[category] = LatencyHistogram()
        stat.add(seconds)

    def cache_snapshot(self) -> dict[str, Any]:
        """The attached flow cache's hit/miss/invalidation counters
        (empty dict if no cache is attached)."""
        cache = self._planes.get("flow_cache")
        if cache is None:
            return {}
        return cache.stats()

    def cache_hit_rate(self) -> float:
        cache = self._planes.get("flow_cache")
        if cache is None:
            return 0.0
        return cache.hit_rate()

    # -- request-plane observation ----------------------------------------

    def attach_request_plane(self, provider: "Provider") -> "Metrics":
        """Start observing a provider's request-plane caches: the
        launch-capability index, the export-authority memo, and the
        process pool.  Returns self for chaining, mirroring
        :meth:`attach_flow_cache`."""
        return self._attach("request", provider)

    def request_plane_snapshot(self) -> dict[str, Any]:
        """Hit/miss/invalidation counters for every request-plane
        cache (empty dict if no provider is attached)."""
        provider = self._planes.get("request")
        if provider is None:
            return {}
        return {
            "launch_caps": provider.capindex.stats(),
            "authority": provider.declass.authority_stats(),
            "pool": provider.kernel.pool.stats(),
            "plans": provider.plans.stats(),
            "audit_dropped": provider.kernel.audit.dropped,
        }

    # -- data-plane observation --------------------------------------------

    def attach_data_plane(self, provider: "Provider") -> "Metrics":
        """Start observing a provider's data-plane engines: the
        partitioned store's partition hit/skip counters and the
        filesystem's walk-pruning counters.  Returns self for chaining,
        mirroring :meth:`attach_request_plane`."""
        return self._attach("data", provider)

    def data_plane_snapshot(self) -> dict[str, Any]:
        """Partition/pruning counters for the attached provider's
        store and filesystem (empty dict if none attached)."""
        provider = self._planes.get("data")
        if provider is None:
            return {}
        return {"db": provider.db.stats(), "fs": provider.fs.stats()}

    # -- durability observation --------------------------------------------

    def attach_persistence(self, provider: "Provider") -> "Metrics":
        """Start observing a provider's durability plane: journal
        appends and bytes, compactions, replayed records, torn-tail
        truncations.  Returns self for chaining, mirroring
        :meth:`attach_request_plane` / :meth:`attach_data_plane`."""
        return self._attach("persistence", provider)

    def persistence_snapshot(self) -> dict[str, Any]:
        """The attached provider's journal/compaction/replay counters
        (empty dict if none attached; ``incremental_persistence: False``
        when the provider runs the naive full-snapshot baseline)."""
        provider = self._planes.get("persistence")
        if provider is None:
            return {}
        return provider.persistence_stats()

    # -- federation observation --------------------------------------------

    def attach_federation(self,
                          federation: FederationStatsSource) -> "Metrics":
        """Start observing a federation object — a
        :class:`~repro.federation.FederationFabric` or a single
        :class:`~repro.federation.ProviderLink` (duck-typed on
        ``federation_stats``; the shape is pinned by the
        :class:`FederationStatsSource` protocol and documented in
        ``docs/OBSERVABILITY.md``).  Envelope traffic, dedup counters
        and per-user cursor lag become readable via
        :meth:`federation_snapshot`.  Returns self for chaining, like
        every other ``attach_*``."""
        return self._attach("federation", federation)

    def federation_snapshot(self) -> dict[str, Any]:
        """The attached federation plane's counters: envelopes sent and
        deduped, bytes moved, sync-round mix (delta vs full recon) and
        cursor lag (empty dict if none attached)."""
        federation = self._planes.get("federation")
        if federation is None:
            return {}
        return federation.federation_stats()

    # -- gateway-edge observation ------------------------------------------

    def attach_gateway(self, gateway: "Gateway") -> "Metrics":
        """Start observing the perimeter's edge counters: exports
        allowed/denied and rate-limited rejections.  Returns self for
        chaining, like every other ``attach_*``."""
        return self._attach("gateway", gateway)

    def gateway_snapshot(self) -> dict[str, Any]:
        """The attached gateway's edge counters (empty dict if none
        attached)."""
        gateway = self._planes.get("gateway")
        if gateway is None:
            return {}
        return {
            "exports_allowed": gateway.exports_allowed,
            "exports_denied": gateway.exports_denied,
            "rate_limited": gateway.rate_limited,
        }

    def flow_latency(self, category: Optional[str] = None) -> dict[str, Any]:
        """Aggregated flow-check latency.

        With ``category`` the stats for that category alone; without,
        a mapping of every observed category to its stats.  Each stats
        dict carries the historical keys (count, total_s, mean_us,
        min_us, max_us) plus histogram-estimated p50_us/p95_us/p99_us.
        """
        if category is not None:
            stat = self._latency.get(category)
            return stat.as_dict() if stat is not None else {}
        return {cat: stat.as_dict()
                for cat, stat in sorted(self._latency.items())}
