"""Record the perf trajectory: quick benchmark runs to JSON.

Writes ``BENCH_M1.json`` (label-operation microbenchmarks, cached and
uncached), ``BENCH_M2.json`` (end-to-end request path),
``BENCH_M8.json`` (request-plane scaling vs. user count),
``BENCH_M9.json`` (data-plane scaling vs. distinct labels),
``BENCH_M10.json`` (incremental durability vs. full snapshots),
``BENCH_M11.json`` (request-tracing overhead), ``BENCH_M12.json``
(compiled request plans vs. the interpreted decision path),
``BENCH_M13.json`` (the sharded request plane: 1-shard parity and
multi-shard scaling), ``BENCH_M14.json`` (the squeezed mandated
pipeline vs. its naive twins), ``BENCH_M15.json`` (journal-cursor
delta federation sync vs. the naive reconciler, plus fabric routing
latency across provider fleets) and ``BENCH_M16.json`` (fleet
observability: disabled-path parity and the stitched-tracing
premium) so CI can
archive one number series per commit — the repo's before/after
record for the fast-path label engine, the O(1) request plane, the
label-partitioned storage engine, the write-ahead journal, the span
tracer and planned dispatch lives in these files and in
EXPERIMENTS.md.

``BENCH_M8`` through ``BENCH_M15`` double as regression guards: the
run **fails** (exit code 1) if per-request latency at 1,000 users
exceeds 3x the 10-user latency with the fast request plane on, if
the partitioned select beats the naive engine by less than 3x on a
10k-row / 128-label table, if the incremental snapshot beats the
full snapshot by less than 3x at 1,000 users with 1% dirty state, if
enabled tracing costs more than 1.4x on the M8 mix, or if the
compiled decision read exceeds its 10us budget or beats the
interpretation it replaced by less than 3x, or if shard scaling
misses its bar (3x aggregate throughput at 4 shards on a 4+-core
POSIX box; the graceful-degradation floor elsewhere), or if the M14
fast pipeline beats its naive twins by less than 1.2x end to end,
or if delta federation sync beats the naive content reconciler by
less than 5x at 1,000 files with a 1% dirty set, or if the fleet
observability plane costs more than 1.05x disabled or 15us per
request armed.

Usage::

    PYTHONPATH=src python benchmarks/record.py [--out DIR] [--repeat N]

Quick mode by design: each measurement is a tight loop around the hot
operation, reported as ops/sec (best of ``--repeat`` runs, to shed
scheduler noise).  For statistically careful numbers use
``pytest benchmarks/ --benchmark-only``; for a trajectory a cheap,
stable point per commit beats an expensive one nobody records.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path


def _ops_per_sec(fn, *, n: int, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return n / best


def bench_m1(repeat: int) -> dict:
    """Label-op throughput: flow checks, join, label change — each
    uncached (the pure algebra) and cached (the memoized fast path)."""
    from repro.labels import (CapabilitySet, FlowCache, Label, TagRegistry,
                              can_flow, label_change_allowed, minus, plus)

    reg = TagRegistry(namespace="bench-m1")
    tags = [reg.create(purpose=f"t{i}") for i in range(256)]
    results: dict[str, dict] = {}

    for size in (1, 8, 64):
        a = Label(tags[:size])
        b = Label(tags[: size + size // 2 + 1])
        caps = CapabilitySet(
            [plus(t) for t in tags[: size + size // 2 + 1]]
            + [minus(t) for t in tags[: size // 2 + 1]])
        empty = Label.EMPTY
        cache = FlowCache()
        cache.can_flow(a, empty, b, empty, caps, caps)  # warm

        n = 5_000 if size >= 64 else 20_000
        uncached = _ops_per_sec(
            lambda: can_flow(a, empty, b, empty, caps, caps),
            n=n, repeat=repeat)
        cached = _ops_per_sec(
            lambda: cache.can_flow(a, empty, b, empty, caps, caps),
            n=n, repeat=repeat)
        join = _ops_per_sec(lambda: a | b, n=n, repeat=repeat)
        change = _ops_per_sec(
            lambda: label_change_allowed(a, b, caps), n=n, repeat=repeat)
        results[f"size_{size}"] = {
            "can_flow_uncached_ops": round(uncached),
            "can_flow_cached_ops": round(cached),
            "cache_speedup": round(cached / uncached, 2),
            "join_ops": round(join),
            "label_change_ops": round(change),
        }
    return results


def bench_m2(repeat: int) -> dict:
    """End-to-end request latency through the full W5 pipeline."""
    from repro import W5System

    w5 = W5System()
    bob = w5.add_user("bob", apps=["blog"])
    bob.get("/app/blog/post", title="t0", body="hello world")
    assert bob.get("/app/blog/read", title="t0").ok

    n = 300
    request = _ops_per_sec(
        lambda: bob.get("/app/blog/read", title="t0"), n=n, repeat=repeat)
    static = _ops_per_sec(lambda: bob.get("/"), n=n, repeat=repeat)
    cache_stats = w5.provider.kernel.flow_cache.stats()
    return {
        "w5_request_ops": round(request),
        "static_route_ops": round(static),
        "flow_cache_hit_rate": round(
            w5.provider.kernel.flow_cache.hit_rate(), 4),
        "flow_cache_hits": cache_stats["hit_total"],
        "flow_cache_misses": cache_stats["miss_total"],
    }


#: The M8 regression bound: 1,000-user latency vs. 10-user latency.
M8_MAX_RATIO = 3.0


def bench_m8(repeat: int) -> dict:
    """Per-request latency vs. deployment size, fast plane on and off.

    The interesting number is the growth ratio: flat (~1x) with the
    capability index + authority cache + pool, linear without.
    """
    from m8_scaling import run_tier

    results: dict[str, dict] = {}
    for n_users in (10, 100, 1_000, 5_000):
        tier = run_tier(n_users, fast=True, n=40, repeat=repeat)
        results[f"fast_{n_users}"] = {
            "latency_us": tier["latency_us"],
            "throughput_rps": tier["throughput_rps"],
            "launch_cap_hits": tier["launch_caps"]["hits"],
            "authority_hits": tier["authority"]["hits"],
            "audit_dropped": tier["audit_dropped"],
        }
    for n_users in (10, 100, 1_000):
        tier = run_tier(n_users, fast=False, n=20, repeat=repeat)
        results[f"slow_{n_users}"] = {
            "latency_us": tier["latency_us"],
            "throughput_rps": tier["throughput_rps"],
        }
    ratio = (results["fast_1000"]["latency_us"]
             / results["fast_10"]["latency_us"])
    results["scaling"] = {
        "fast_1000_vs_10_ratio": round(ratio, 3),
        "slow_1000_vs_10_ratio": round(
            results["slow_1000"]["latency_us"]
            / results["slow_10"]["latency_us"], 3),
        "max_ratio": M8_MAX_RATIO,
        "regression": ratio > M8_MAX_RATIO,
    }
    return results


#: The M9 regression bound: naive vs partitioned select at 128 labels.
M9_MIN_SPEEDUP = 3.0


def bench_m9(repeat: int) -> dict:
    """Label-filtered query cost vs. distinct labels, both engines.

    The interesting number is the select speedup at high label
    diversity: the partitioned engine resolves visibility per
    partition, so a 128-label table costs ~1/128th of the naive
    per-row scan for a single-contract viewer.
    """
    from m9_partitions import run_tier

    results: dict[str, dict] = {}
    for n_labels in (2, 16, 128):
        part = run_tier(10_000, n_labels, partitioned=True, n=10,
                        repeat=repeat)
        naive = run_tier(10_000, n_labels, partitioned=False, n=4,
                         repeat=repeat)
        results[f"labels_{n_labels}"] = {
            "partitioned_select_us": part["select_us"],
            "naive_select_us": naive["select_us"],
            "select_speedup": round(
                naive["select_us"] / part["select_us"], 2),
            "partitioned_update_us": part["update_us"],
            "naive_update_us": naive["update_us"],
            "partitioned_walk_us": part["walk_us"],
            "naive_walk_us": naive["walk_us"],
            "partitions_skipped": part["db_stats"]["partitions_skipped"],
            "subtrees_pruned": part["fs_stats"]["subtrees_pruned"],
        }
    speedup = results["labels_128"]["select_speedup"]
    results["scaling"] = {
        "select_speedup_at_128": speedup,
        "min_speedup": M9_MIN_SPEEDUP,
        "regression": speedup < M9_MIN_SPEEDUP,
    }
    return results


#: The M11 regression bound: traced vs disabled on the M8 mix.  The
#: tracing premium is fixed µs, so the ratio rose when M14 squeezed
#: the untraced mix (see m11_tracing.py for the recalibration).
M11_MAX_OVERHEAD = 1.40


def bench_m11(repeat: int) -> dict:
    """Request-tracing cost: traced vs. disabled on the M8 mix.

    The interesting number is the enabled ratio: the always-on tier
    (root span, exact request histograms, audit correlation, flight
    recorder) plus the 1-in-16-sampled detail tree costs a fixed ~7-14us
    per request, so the ratio rides on how fast the underlying request
    already is (the bound moved 1.2 -> 1.4 when M14 squeezed the
    untraced mix; see m11_tracing.py).
    """
    from m11_tracing import run_overhead

    del repeat  # the interleaved-slice protocol fixes its own reps
    overhead = run_overhead(n_users=100)
    ratio = overhead["enabled_ratio"]
    return {
        "baseline": overhead["baseline"],
        "traced": overhead["traced"],
        "disabled_noise_ratio": overhead["disabled_noise_ratio"],
        "enabled_ratio": ratio,
        "scaling": {
            "enabled_ratio": ratio,
            "max_overhead": M11_MAX_OVERHEAD,
            "regression": ratio > M11_MAX_OVERHEAD,
        },
    }


#: The M12 regression bound, on the cached-read path: the compiled
#: decision read must be at least 3x cheaper than the per-request
#: interpretation it replaced (the unplanned-minus-planned gap).
M12_MIN_DECISION_SPEEDUP = 3.0


def bench_m12(repeat: int) -> dict:
    """Planned dispatch: compiled decision reads vs. interpretation.

    The interesting number is the cached read — the compiled decision
    path on a plan hit (lookup + pool key + partition verdicts +
    egress verdict), ~1-3us against the ~15us of interpretation the
    unplanned plane spends re-deriving the same answers per request.
    The guard is on that ratio: if the cached read path bloats, the
    speedup collapses long before the end-to-end numbers notice.
    """
    from m12_plans import M12_MAX_CACHED_READ_US, run_comparison

    del repeat  # the interleaved-slice protocol fixes its own reps
    comparison = run_comparison(n_users=100)
    speedup = comparison["decision_speedup"]
    return {
        "unplanned": comparison["unplanned"],
        "planned": comparison["planned"],
        "cached_read_us": comparison["cached_read_us"],
        "interpretation_removed_us":
            comparison["interpretation_removed_us"],
        "unplanned_noise_ratio": comparison["unplanned_noise_ratio"],
        "planned_ratio": comparison["planned_ratio"],
        "scaling": {
            "cached_read_us": comparison["cached_read_us"],
            "max_cached_read_us": M12_MAX_CACHED_READ_US,
            "decision_speedup": speedup,
            "min_decision_speedup": M12_MIN_DECISION_SPEEDUP,
            "regression": (
                speedup < M12_MIN_DECISION_SPEEDUP
                or comparison["cached_read_us"]
                > M12_MAX_CACHED_READ_US),
        },
    }


def bench_m13(repeat: int) -> dict:
    """The sharded request plane: 1-shard parity, multi-shard scaling.

    Two numbers.  Parity: a 1-shard ShardedProvider on the batched
    shard-local read mix vs. the unsharded fast() plane — the
    compiled-in router must cost ~nothing when sharding is off.
    Scaling: aggregate throughput at 1/2/4 shards under the fork
    engine (the only one that escapes the GIL).  The guard is
    conditional on the box: the 3x bar needs 4+ cores and os.fork;
    single-core runners get the graceful-degradation floor, and the
    payload records which bar was in force.
    """
    from m13_shards import (M13_MAX_ONE_SHARD_RATIO, run_parity,
                            run_scaling, scaling_guard)

    parity = run_parity()
    scaling = run_scaling(repeat=repeat)
    guard = scaling_guard(scaling)
    guard["one_shard_ratio"] = parity["one_shard_ratio"]
    guard["unsharded_noise_ratio"] = parity["unsharded_noise_ratio"]
    guard["max_one_shard_ratio"] = M13_MAX_ONE_SHARD_RATIO
    guard["regression"] = (
        guard["regression"]
        or parity["one_shard_ratio"] > M13_MAX_ONE_SHARD_RATIO)
    return {"parity": parity, **scaling, "scaling": guard}


def bench_m14(repeat: int) -> dict:
    """The squeezed mandated pipeline: fast vs. naive twins, M8 mix.

    The interesting number is the end-to-end speedup with request
    plans on *both* sides: the four M14 shortcuts (lazy audit,
    compiled label transitions, batched charges, verdict slots)
    against the naive implementations they replaced, byte-identical
    observables pinned by the differential suite.  The guard is the
    1.2x bar plus the M11-style naive-noise bound: if two identical
    naive builds stop agreeing, the speedup number means nothing.
    """
    from m14_pipeline import (M14_MAX_NAIVE_NOISE, M14_MIN_SPEEDUP,
                              run_comparison)

    del repeat  # the interleaved-slice protocol fixes its own reps
    comparison = run_comparison(n_users=100)
    speedup = comparison["speedup"]
    noise = comparison["naive_noise_ratio"]
    return {
        "naive": comparison["naive"],
        "fast": comparison["fast"],
        "pipeline_removed_us": comparison["pipeline_removed_us"],
        "naive_noise_ratio": noise,
        "speedup": speedup,
        "scaling": {
            "speedup": speedup,
            "min_speedup": M14_MIN_SPEEDUP,
            "naive_noise_ratio": noise,
            "max_naive_noise": M14_MAX_NAIVE_NOISE,
            "regression": (speedup < M14_MIN_SPEEDUP
                           or noise > M14_MAX_NAIVE_NOISE),
        },
    }


def bench_m15(repeat: int) -> dict:
    """Incremental federation: delta sync vs. naive, fabric routing.

    The interesting number is the guard-tier speedup: one sync round
    at 1,000 mirrored files with 10 dirty.  The naive reconciler
    re-reads the corpus on both sides; the delta engine tails the
    journal from the link's cursor, so its round cost tracks the
    dirty set.  The payload also records the flatness of the delta
    curve across corpus tiers and the routed-read latency across
    fabric sizes up to 256 providers.
    """
    from m15_federation import run_latency_curve, run_sync_scaling

    scaling = run_sync_scaling(reps=max(repeat, 3))
    latency = run_latency_curve()
    return {
        "sync": {k: v for k, v in scaling.items()
                 if k not in ("regression", "min_speedup")},
        "fabric_latency": latency,
        "scaling": {
            "speedup": scaling["speedup"],
            "min_speedup": scaling["min_speedup"],
            "delta_flatness": scaling["delta_flatness"],
            "naive_growth": scaling["naive_growth"],
            "regression": scaling["regression"],
        },
    }


def bench_m16(repeat: int) -> dict:
    """Fleet observability: the cost of cross-shard trace stitching.

    The interesting numbers are the two M16 invariants, both
    same-build differentials: the 2-shard fleet plane with tracing
    *off*, routed vs. the identical requests dispatched directly to
    its M14-fast shard providers (must be ~1.0x — routing plus one
    attribute load of M16 plumbing), and the per-request premium of
    stitched fleet tracing over shard-local tracing on the same
    traced builds (context export + remote capture + graft merge, an
    absolute microsecond budget).
    """
    from m16_fleet_obs import run_fleet_obs

    result = run_fleet_obs(reps=max(repeat * 4, 12))
    return {
        "fleet": {k: v for k, v in result.items() if k != "regression"},
        "scaling": {
            "disabled_ratio": result["disabled"]["ratio"],
            "max_disabled_ratio": result["disabled"]["max_ratio"],
            "armed_premium_us": result["armed"]["premium_us"],
            "max_armed_premium_us": result["armed"]["max_premium_us"],
            "regression": result["regression"],
        },
    }


#: The M10 regression bound: full vs incremental snapshot at 1k users.
M10_MIN_SPEEDUP = 3.0


def bench_m10(repeat: int) -> dict:
    """Durability cost: incremental vs. full snapshots, journal
    overhead, and recovery-by-replay timing.

    The interesting number is the snapshot speedup at 1,000 users with
    1% dirty state: the journal makes the snapshot O(dirty), so the
    full/incremental gap widens linearly with deployment size.
    """
    from m10_journal import mutation_overhead, run_tier

    results: dict[str, dict] = {}
    for n_users in (100, 1_000):
        tier = run_tier(n_users, dirty_frac=0.01, repeat=repeat)
        results[f"users_{n_users}"] = {
            "full_ms": tier["full_ms"],
            "incremental_ms": tier["incremental_ms"],
            "snapshot_speedup": tier["snapshot_speedup"],
            "full_bytes": tier["full_bytes"],
            "delta_bytes": tier["delta_bytes"],
            "recover_ms": tier["recover_ms"],
            "records_replayed": tier["records_replayed"],
        }
    results["overhead"] = mutation_overhead(repeat=repeat)
    speedup = results["users_1000"]["snapshot_speedup"]
    results["scaling"] = {
        "snapshot_speedup_at_1000": speedup,
        "min_speedup": M10_MIN_SPEEDUP,
        "regression": speedup < M10_MIN_SPEEDUP,
    }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=".", type=Path,
                        help="directory for BENCH_*.json (default: cwd)")
    parser.add_argument("--repeat", default=3, type=int,
                        help="runs per measurement; best is kept")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    meta = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "schema": 1,
    }
    failed = False
    for name, fn in (("M1", bench_m1), ("M2", bench_m2), ("M8", bench_m8),
                     ("M9", bench_m9), ("M10", bench_m10),
                     ("M11", bench_m11), ("M12", bench_m12),
                     ("M13", bench_m13), ("M14", bench_m14),
                     ("M15", bench_m15), ("M16", bench_m16)):
        payload = {"experiment": name, **meta,
                   "results": fn(args.repeat)}
        path = args.out / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
        print(json.dumps(payload["results"], indent=2))
        if name == "M8" and payload["results"]["scaling"]["regression"]:
            ratio = payload["results"]["scaling"]["fast_1000_vs_10_ratio"]
            print(f"M8 REGRESSION: 1,000-user latency is {ratio}x the "
                  f"10-user latency (bound: {M8_MAX_RATIO}x)")
            failed = True
        if name == "M9" and payload["results"]["scaling"]["regression"]:
            speedup = payload["results"]["scaling"]["select_speedup_at_128"]
            print(f"M9 REGRESSION: partitioned select only {speedup}x "
                  f"the naive engine at 128 labels "
                  f"(bound: {M9_MIN_SPEEDUP}x)")
            failed = True
        if name == "M10" and payload["results"]["scaling"]["regression"]:
            speedup = payload["results"]["scaling"][
                "snapshot_speedup_at_1000"]
            print(f"M10 REGRESSION: incremental snapshot only {speedup}x "
                  f"faster than full at 1,000 users / 1% dirty "
                  f"(bound: {M10_MIN_SPEEDUP}x)")
            failed = True
        if name == "M11" and payload["results"]["scaling"]["regression"]:
            ratio = payload["results"]["scaling"]["enabled_ratio"]
            print(f"M11 REGRESSION: enabled tracing costs {ratio}x on "
                  f"the M8 mix (bound: {M11_MAX_OVERHEAD}x)")
            failed = True
        if name == "M12" and payload["results"]["scaling"]["regression"]:
            scaling = payload["results"]["scaling"]
            print(f"M12 REGRESSION: cached decision read costs "
                  f"{scaling['cached_read_us']}us "
                  f"(bound: {scaling['max_cached_read_us']}us) at "
                  f"{scaling['decision_speedup']}x the interpretation "
                  f"it replaces "
                  f"(bound: {M12_MIN_DECISION_SPEEDUP}x minimum)")
            failed = True
        if name == "M13" and payload["results"]["scaling"]["regression"]:
            scaling = payload["results"]["scaling"]
            print(f"M13 REGRESSION: 1-shard parity at "
                  f"{scaling['one_shard_ratio']}x "
                  f"(bound: {scaling['max_one_shard_ratio']}x; unsharded "
                  f"build noise {scaling['unsharded_noise_ratio']}x) or "
                  f"shard scaling at {scaling['speedup_max_vs_1']}x "
                  f"(bound: {scaling['min_speedup']}x, "
                  f"{'multicore' if scaling['multicore_bar'] else 'degraded'}"
                  f" bar)")
            failed = True
        if name == "M14" and payload["results"]["scaling"]["regression"]:
            scaling = payload["results"]["scaling"]
            print(f"M14 REGRESSION: fast pipeline only "
                  f"{scaling['speedup']}x the naive pipeline "
                  f"(bound: {scaling['min_speedup']}x minimum) with "
                  f"naive-build noise at {scaling['naive_noise_ratio']}x "
                  f"(bound: {scaling['max_naive_noise']}x)")
            failed = True
        if name == "M15" and payload["results"]["scaling"]["regression"]:
            scaling = payload["results"]["scaling"]
            print(f"M15 REGRESSION: delta federation sync only "
                  f"{scaling['speedup']}x the naive reconciler at the "
                  f"guard tier (bound: {scaling['min_speedup']}x minimum)")
            failed = True
        if name == "M16" and payload["results"]["scaling"]["regression"]:
            scaling = payload["results"]["scaling"]
            print(f"M16 REGRESSION: disabled fleet plane at "
                  f"{scaling['disabled_ratio']}x its direct-dispatch "
                  f"baseline "
                  f"(bound: {scaling['max_disabled_ratio']}x) or "
                  f"stitched-tracing premium at "
                  f"{scaling['armed_premium_us']}us per request "
                  f"(bound: {scaling['max_armed_premium_us']}us)")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
