"""M10 — incremental durability: O(dirty) snapshots, journaled replay.

The tentpole claim: with a write-ahead journal, durability costs
O(dirty state) per snapshot instead of O(total state), and recovery
(base + replay) reproduces exactly what a full restore would.  We
build 100- and 1,000-user deployments, dirty 1% of accounts, and
assert the shapes:

* the incremental snapshot beats the full snapshot decisively at
  1,000 users (>= 10x — measured ~50x), and the gap *widens* with
  deployment size (full is O(users), the delta is O(dirty));
* the delta artifact is a small fraction of the full snapshot bytes;
* journaling costs < 1.5x mutation throughput on the representative
  write mix (file write + profile update + request-plane db write);
* replay actually replays: the recovered provider serves the
  post-checkpoint writes (byte-for-byte equivalence is proven in
  ``tests/platform/test_journal_replay.py``).
"""

import pytest

from .conftest import print_table
from .m10_journal import mutation_overhead, run_tier

USER_TIERS = (100, 1_000)
DIRTY_FRAC = 0.01


@pytest.fixture(scope="module")
def tiers():
    results = {n: run_tier(n, dirty_frac=DIRTY_FRAC) for n in USER_TIERS}
    print_table(
        "M10 durability (1% dirty accounts)",
        ["users", "full ms", "incr ms", "speedup", "delta/full bytes",
         "recover ms", "replayed"],
        [[n, t["full_ms"], t["incremental_ms"], t["snapshot_speedup"],
          f"{t['delta_bytes']}/{t['full_bytes']}", t["recover_ms"],
          t["records_replayed"]]
         for n, t in results.items()])
    return results


@pytest.fixture(scope="module")
def overhead():
    result = mutation_overhead()
    print_table(
        "M10 mutation throughput (journaled vs no journal)",
        ["workload", "journaled µs", "naive µs", "overhead"],
        [["mix", result["journaled_mix_us"], result["naive_mix_us"],
          f"{result['mix_overhead']}x"],
         ["direct", result["journaled_direct_us"],
          result["naive_direct_us"],
          f"{result['direct_overhead']}x"],
         ["naive noise", "", "", f"{result['naive_noise_ratio']}x"]])
    return result


def test_bench_m10_incremental_snapshot_wins_big(tiers):
    speedup = tiers[1_000]["snapshot_speedup"]
    assert speedup >= 10.0, (
        f"incremental snapshot only {speedup:.1f}x faster than full "
        f"at 1,000 users / 1% dirty (need >= 10x)")


def test_bench_m10_gap_widens_with_deployment_size(tiers):
    assert tiers[1_000]["snapshot_speedup"] > tiers[100]["snapshot_speedup"]


def test_bench_m10_delta_is_small(tiers):
    t = tiers[1_000]
    assert t["delta_bytes"] * 10 < t["full_bytes"], (
        f"delta {t['delta_bytes']}B not small vs full {t['full_bytes']}B")


def test_bench_m10_journal_overhead_is_modest(overhead):
    noise = overhead["naive_noise_ratio"]
    assert overhead["mix_overhead"] < 1.5, (
        f"journaling costs {overhead['mix_overhead']}x on the write mix "
        f"(need < 1.5x; naive-build noise {noise}x)")
    assert overhead["direct_overhead"] < 2.0, (
        f"journaling costs {overhead['direct_overhead']}x even on bare "
        f"direct-API mutations (need < 2x; naive-build noise {noise}x)")


def test_bench_m10_replay_really_replays(tiers):
    t = tiers[1_000]
    assert t["records_replayed"] == 2 * t["dirty"]  # profile + file each
    assert t["journal_stats"]["torn_truncations"] == 0


def test_bench_m10_snapshot_latency(benchmark):
    """pytest-benchmark point for the 1,000-user incremental snapshot."""
    from repro.platform import snapshot_provider
    from .m10_journal import build_provider
    p = build_provider(1_000, incremental=True)
    p._durability.checkpoint()
    p.set_profile("user00042", mood="benchmarked")
    snap = benchmark(snapshot_provider, p, incremental=True)
    assert snap["kind"] == "delta"
