"""M16 shared harness: fleet observability cost on the sharded plane.

The M11 invariant, restated for the fleet: cross-shard trace
propagation only earns its place if the *disabled* path costs nothing
on top of the M14 fast plane and the *armed* path adds single-digit
microseconds per request.  Two measurements:

* **disabled** — a 2-shard serial ``ShardedProvider(tracing=False)``
  on the M13 batched read mix, routed path (``handle_batch``: the
  full M13 router — ``shard_for`` + group + dispatch + reassemble +
  ``_note_response`` — plus the M16 plumbing: one ``tracer.enabled``
  load, the engines' (ctx=None, empty-skeleton) tuple shape) vs. the
  *same pre-grouped requests dispatched directly* to the deployment's
  own shard providers — each a complete M14 ``fast()`` provider, so
  the denominator **is** the M14 fast baseline executing the
  identical work.  The same builds serve both paths, so build-to-
  build heap-layout luck (±5% between *different* deployments on
  this container, documented by the M11/M13 bounds — larger than the
  effect measured) cancels from the ratio; the quantity guarded is
  everything the fleet plane adds per request with tracing off, and
  M16 cannot hide new disabled-path work inside it;

* **armed** — the same deployment with ``tracing=True``, fleet path
  (``handle_batch``: router root span + context export + per-shard
  ``RemoteCapture`` + skeleton serialization + graft stitch) vs. the
  shard-local path (``_run_batch(reqs, None)``: the identical fan-out
  with per-shard tracing but no propagation — exactly what pre-M16
  sharded tracing did).  The *difference* of the two floors is the
  per-request premium of fleet stitching, and it is guarded as an
  absolute microsecond budget, not a ratio, because the traced
  request underneath is already ~10x the premium.

Both measurements interleave their two paths in measurement slices on
shared builds, per the M11 drift-resistant protocol.  The armed
premium subtracts the two paths' no-interruption floors; the disabled
ratio is the median of paired per-slice ratios (see
:func:`run_disabled` for why floors are the wrong statistic there).

Used by both ``test_bench_m16_fleet_obs.py`` (assertions + table) and
``record.py`` (BENCH_M16.json + the regression guard), so the two
always measure the same thing.
"""

from __future__ import annotations

import statistics
from typing import Any

from repro.apps import install_standard_apps
from repro.net.http import HttpRequest
from repro.platform import ShardedProvider

try:  # package context (pytest)
    from .m13_shards import _populate, measure_batch_seconds
except ImportError:  # script context (record.py)
    from m13_shards import _populate, measure_batch_seconds

#: Disabled bound: routed ``handle_batch`` vs. direct per-shard
#: dispatch on the same untraced builds, scored by the median of
#: paired per-slice ratios.  The gap
#: is the M13 routing (``shard_for``, grouping, reassembly,
#: ``_note_response``) plus the M16 plumbing (one attribute load, a
#: ctx=None argument, an empty skeleton list per shard): measured
#: ~0.8us on the ~32us read, a 1.02-1.03x ratio — the serial
#: engine's sub-batches run each shard's own ``handle_batch``, so
#: routing is the only real work.  Because both paths share builds,
#: the ratio is free of the cross-deployment layout spread; 1.05
#: leaves ~2x the measured cost as headroom while catching any real
#: per-request work the disabled fleet plane might grow.
M16_MAX_DISABLED_OVERHEAD = 1.05
#: Armed bound: the fleet premium (stitched minus shard-local floors)
#: per cross-shard request.  The premium is context export + remote
#: capture window + skeleton dict per trace + graft merge at close,
#: measured at 5-9us per request on the dev container (the skeleton
#: serialization dominates).  15us keeps real headroom for CI: a
#: premium past it means per-span work crept into the capture window.
M16_MAX_ARMED_DELTA_US = 15.0

N_USERS = 48
N_SHARDS = 2


def build_fleet(tracing: bool, n_users: int = N_USERS
                ) -> tuple[ShardedProvider, list[HttpRequest]]:
    """A 2-shard serial deployment on the M13 read mix."""
    sp = ShardedProvider(name="m16", n_shards=N_SHARDS, engine="serial",
                         tracing=tracing)
    install_standard_apps(sp)
    reads = _populate(sp, sp, n_users)
    return sp, reads


def measure_local_seconds(sp: ShardedProvider,
                          requests: list[HttpRequest],
                          loops: int = 8, repeat: int = 3) -> float:
    """Best-of seconds per request through ``_run_batch(reqs, None)``
    — the pre-M16 shard-local fan-out (tracing per shard, no
    propagation, no stitch)."""
    import time
    responses = sp._run_batch(requests, None)  # warm
    assert all(r.status == 200 for r in responses)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(loops):
            sp._run_batch(requests, None)
        best = min(best, time.perf_counter() - t0)
    return best / (len(requests) * loops)


def _pre_group(sp: ShardedProvider, requests: list[HttpRequest]
               ) -> list[tuple[int, list[HttpRequest]]]:
    """The router's grouping, done once up front, ascending shards."""
    groups: dict[int, list[HttpRequest]] = {}
    for request in requests:
        groups.setdefault(sp.shard_for(request), []).append(request)
    assert len(groups) >= 2, "read mix must span shards"
    return sorted(groups.items())


def measure_direct_seconds(sp: ShardedProvider,
                           grouped: list[tuple[int, list[HttpRequest]]],
                           n: int, loops: int = 8) -> float:
    """One slice's seconds per request dispatching pre-grouped
    sub-batches straight to the shard providers — the M14 fast
    baseline doing the identical work with the fleet plane peeled
    off."""
    import time
    t0 = time.perf_counter()
    for _ in range(loops):
        for shard, reqs in grouped:
            sp.shards[shard].handle_batch(reqs)
    return (time.perf_counter() - t0) / (n * loops)


def run_disabled(n_users: int = N_USERS, loops: int = 8,
                 reps: int = 14) -> dict[str, Any]:
    """Disabled-path cost: routed vs. direct on the same builds.

    Like the armed measurement, the *same untraced builds* serve both
    paths — ``handle_batch`` (the full fleet plane) and direct
    per-shard dispatch of the identical pre-grouped requests (the M14
    fast baseline) — so the ratio isolates exactly what the fleet
    plane adds per request, with build-to-build layout luck
    cancelled.  Comparing *different* deployments instead (2-shard
    vs. unsharded builds) puts a documented ±5% layout spread under a
    5% bound — an extreme-value coin flip, not a guard.

    The score is the **median of paired per-slice ratios**: each rep
    times the two paths back-to-back (order alternating per rep), so
    a sustained-load period inflates both halves of a pair and drops
    out of its ratio, and the median discards pairs a spike split
    down the middle.  Global floors are unsafe here — under sustained
    noise whichever path lucks into the single quietest slice wins,
    which showed up as a ±10% coin flip on the dev container.
    """
    builds = [build_fleet(False, n_users), build_fleet(False, n_users)]
    grouped = [_pre_group(sp, reads) for sp, reads in builds]
    for (sp, reads), groups in zip(builds, grouped):
        responses = sp.handle_batch(reads)  # warm + correctness
        assert all(r.status == 200 for r in responses)
        measure_direct_seconds(sp, groups, len(reads), loops=loops)
    direct_s: list[float] = []
    routed_s: list[float] = []
    ratios: list[float] = []
    for rep in range(reps):
        for (sp, reads), groups in zip(builds, grouped):
            if rep % 2 == 0:
                direct = measure_direct_seconds(
                    sp, groups, len(reads), loops=loops)
                routed = measure_batch_seconds(
                    sp, reads, loops=loops, repeat=1)
            else:
                routed = measure_batch_seconds(
                    sp, reads, loops=loops, repeat=1)
                direct = measure_direct_seconds(
                    sp, groups, len(reads), loops=loops)
            direct_s.append(direct)
            routed_s.append(routed)
            ratios.append(routed / direct)
    ratio = statistics.median(ratios)
    direct = min(direct_s)
    routed = min(routed_s)
    return {
        "direct_us": round(direct * 1e6, 3),
        "fleet_disabled_us": round(routed * 1e6, 3),
        "router_overhead_us": round((ratio - 1.0) * direct * 1e6, 3),
        "ratio": round(ratio, 4),
        "max_ratio": M16_MAX_DISABLED_OVERHEAD,
    }


def run_armed(n_users: int = N_USERS, loops: int = 6,
              reps: int = 14) -> dict[str, Any]:
    """Armed premium: stitched fleet tracing vs. shard-local tracing.

    Both modes run on traced 2-shard deployments; the *same builds*
    serve both measurement paths (handle_batch vs. _run_batch), so
    build-to-build layout luck cancels out of the subtraction
    entirely — only the stitching code differs between the paths.
    """
    builds = [build_fleet(True, n_users), build_fleet(True, n_users)]
    for sp, reads in builds:
        measure_batch_seconds(sp, reads, loops=loops, repeat=1)  # warm
        measure_local_seconds(sp, reads, loops=loops, repeat=1)
    local_s: list[float] = []
    stitched_s: list[float] = []
    for _ in range(reps):
        for sp, reads in builds:
            local_s.append(
                measure_local_seconds(sp, reads, loops=loops, repeat=1))
            stitched_s.append(
                measure_batch_seconds(sp, reads, loops=loops, repeat=1))
    local = min(local_s)
    stitched = min(stitched_s)
    sp = builds[0][0]
    (batch,) = [t for t in sp.recorder.dump()["slowest"]
                if t["root"] and t["root"]["name"] == "router.batch"][:1] \
        or [{}]
    return {
        "local_traced_us": round(local * 1e6, 3),
        "fleet_traced_us": round(stitched * 1e6, 3),
        "premium_us": round((stitched - local) * 1e6, 3),
        "max_premium_us": M16_MAX_ARMED_DELTA_US,
        "router": sp.tracer.stats(),
        "sample_grafts": batch.get("grafts", 0),
    }


def run_fleet_obs(n_users: int = N_USERS, loops: int = 6,
                  reps: int = 14) -> dict[str, Any]:
    disabled = run_disabled(n_users, loops, reps)
    armed = run_armed(n_users, loops, reps)
    return {
        "users": n_users, "shards": N_SHARDS, "engine": "serial",
        "disabled": disabled,
        "armed": armed,
        "regression": (disabled["ratio"] > M16_MAX_DISABLED_OVERHEAD
                       or armed["premium_us"] > M16_MAX_ARMED_DELTA_US),
    }
