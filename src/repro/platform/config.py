"""Provider configuration: one frozen record instead of flag sprawl.

The Provider constructor accumulated five independent performance
switches over the M8–M11 milestones (``fast_request_plane``,
``recycle_processes``, ``partitioned_store``,
``incremental_persistence``, ``journal_compact_bytes``) plus the
M12 ``request_plans`` switch.  Each is still meaningful on its own —
the differential suites toggle them individually — but callers should
not have to recite six keywords to say "fast" or "naive".

:class:`ProviderConfig` packages them as a frozen dataclass.  The
default ``ProviderConfig()`` is the production plane: every
acceleration on, compiled request plans (M12) included, so
``Provider()`` built with no arguments dispatches ``/app`` requests
from plans.  There are two named presets:

* :meth:`ProviderConfig.fast` — the default, named; what the
  benchmarks ask for explicitly.
* :meth:`ProviderConfig.naive` — everything off: the paper's semantics
  executed the slow, obviously-correct way.  The differential baseline.

Any other deployment is plain keywords, e.g. ``ProviderConfig(shards=4)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class ProviderConfig:
    """Every Provider performance/durability switch in one record."""

    #: Memoized request plane (M8): LaunchCapIndex + authority memo.
    fast_request_plane: bool = True
    #: Process pool recycling (M8): reuse exited app processes.
    recycle_processes: bool = True
    #: Label-partitioned store (M9): group rows by label pair.
    partitioned_store: bool = True
    #: Write-ahead journal + O(dirty) snapshots (M10).
    incremental_persistence: bool = True
    #: Journal size (bytes) that triggers compaction into a snapshot.
    journal_compact_bytes: int = 1 << 20
    #: Compiled per-(app, viewer) request plans (M12).  On by default;
    #: ``False`` selects the interpreted reference plane that
    #: :meth:`naive`, the M8/M11/M12 benchmarks and the plan
    #: differential suite compare against.
    request_plans: bool = True
    #: Number of provider shards (M13).  1 means the classic unsharded
    #: plane; >1 makes W5System build a
    #: :class:`~repro.platform.shards.ShardedProvider` that partitions
    #: users across that many full per-shard providers.
    shards: int = 1
    #: Shard execution engine (M13): ``"serial"`` (in-line, the
    #: default at every shard count) or ``"fork"`` (one forked process
    #: per shard, opt-in: parent-side aliases such as
    #: ``W5System.resources`` go stale once children fork).
    shard_engine: str = "serial"
    #: Deferred audit-detail rendering (M14): hot call sites record an
    #: interned template + args tuple; ``detail`` is formatted on first
    #: access.  Byte-identical to eager formatting (args are interned
    #: immutables), so on by default.
    lazy_audit: bool = True
    #: Compiled label transitions (M14): memoize the capability
    #: legality of ``(from, to, caps)`` label changes behind the
    #: FlowCache generation counter.
    compiled_transitions: bool = True
    #: Batched resource charges (M14): ``charge_many`` applies one
    #: Usage lookup per request with sequential-equivalent denial
    #: ordering.
    batched_charges: bool = True
    #: Array-backed partition verdict slots (M14): planned scans index
    #: a dense verdict list by small-int partition slot instead of
    #: probing a dict per partition.
    verdict_slots: bool = True

    # -- presets --------------------------------------------------------

    @classmethod
    def fast(cls, **overrides: Any) -> "ProviderConfig":
        """All accelerations on, including compiled request plans (the
        default, named)."""
        return cls(**overrides)

    @classmethod
    def naive(cls, **overrides: Any) -> "ProviderConfig":
        """Everything off — the differential baseline plane."""
        base = dict(fast_request_plane=False, recycle_processes=False,
                    partitioned_store=False, incremental_persistence=False,
                    request_plans=False, lazy_audit=False,
                    compiled_transitions=False, batched_charges=False,
                    verdict_slots=False)
        base.update(overrides)
        return cls(**base)

    def replace(self, **changes: Any) -> "ProviderConfig":
        """A copy with ``changes`` applied (configs are frozen)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> dict[str, Any]:
        """Plain-dict view (used by ``Provider.explain`` and tests)."""
        return dataclasses.asdict(self)

