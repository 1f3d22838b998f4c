"""M13 — the sharded request plane: parity off, scaling on.

The sharding claim, as assertions on the batched shard-local read
mix:

* **parity** — a 1-shard ``ShardedProvider`` runs the identical
  workload at ~1.0x the unsharded ``fast()`` plane (the 1-shard path
  short-circuits to the inner provider, so the compiled-in router
  costs a dict probe and nothing else; the differential suite pins
  the two byte-identical);
* **scaling** — on a 4+-core POSIX box the fork engine must turn 4
  shards into at least 3x aggregate throughput; on smaller boxes
  (including single-core CI runners) the guard degrades to the
  graceful floor — sharding may cost, but never collapse — and the
  printed table says which bar was in force;
* the fan-out is real: at 4 shards every shard's child serves a
  share of the burst.
"""

import pytest

from .conftest import print_table
from .m13_shards import (M13_MAX_ONE_SHARD_RATIO, run_parity, run_scaling,
                         scaling_guard)


@pytest.fixture(scope="module")
def parity():
    return run_parity()


@pytest.fixture(scope="module")
def scaling():
    result = run_scaling()
    guard = scaling_guard(result)
    rows = [[name.replace("shards_", "") + " shard(s)",
             tier["engine"], tier["latency_us"], tier["throughput_rps"]]
            for name, tier in sorted(result["tiers"].items())]
    rows.append([f"speedup {result['max_shards']}v1",
                 f"{result['cores']} core(s)",
                 f"{result['speedup_max_vs_1']}x",
                 "3x bar" if guard["multicore_bar"] else "degraded bar"])
    print_table(
        f"M13 shard scaling ({result['users']} users, "
        f"{result['burst']}-request bursts)",
        ["shards", "engine", "latency µs", "throughput rps"], rows)
    return result


def test_bench_m13_one_shard_matches_unsharded(parity):
    ratio = parity["one_shard_ratio"]
    print_table(
        f"M13 parity ({parity['users']} users, unsharded build noise "
        f"{parity['unsharded_noise_ratio']}x)",
        ["plane", "latency µs", "throughput rps", "ratio"],
        [["unsharded fast()", parity["unsharded_us"],
          parity["unsharded_rps"], "1.0x"],
         ["1-shard sharded", parity["one_shard_us"],
          parity["one_shard_rps"], f"{ratio}x"]])
    assert ratio < M13_MAX_ONE_SHARD_RATIO, (
        f"a 1-shard sharded plane runs at {ratio}x the unsharded plane "
        f"(budget {M13_MAX_ONE_SHARD_RATIO}x): the router stopped "
        f"short-circuiting")


def test_bench_m13_scaling_meets_its_bar(scaling):
    guard = scaling_guard(scaling)
    assert not guard["regression"], (
        f"4-shard aggregate throughput is {guard['speedup_max_vs_1']}x "
        f"the 1-shard plane (bar: {guard['min_speedup']}x, "
        f"{'multicore' if guard['multicore_bar'] else 'degraded'})")


def test_bench_m13_every_shard_serves_the_burst():
    from .m13_shards import build_sharded, scaling_engine
    sp, reads = build_sharded(4, engine=scaling_engine(), n_users=16)
    try:
        sp.handle_batch(reads)
        assert all(count > 0 for count in sp.routed), sp.routed
    finally:
        sp.shutdown()
