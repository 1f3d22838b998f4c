"""M13 shared harness: the sharded request plane under load.

Two questions, measured separately because they bound different
things:

* **parity at 1 shard** — a 1-shard :class:`ShardedProvider` on the
  same batched read mix as the unsharded ``ProviderConfig.fast()``
  plane.  One shard short-circuits to the inner provider's
  ``handle_batch`` (the router adds a dict probe per request and
  nothing else), and the differential suite pins the two
  byte-identical — so this ratio is the *entire* price of leaving
  sharding compiled in but switched off, and it must be ~1.0x;
* **scaling across shards** — aggregate throughput of the same
  workload at 1 vs. 4 shards under the fork engine (one child
  process per shard, batch-oriented pipe RPC).  This is the number
  sharding exists for: N GIL-free request planes, one merged audit
  stream.  It is honest only on a multi-core box; on a single core
  the children timeslice one CPU and the harness reports (and
  guards) graceful degradation instead.

The workload is shard-local by construction — every request reads
its own user's data — because that is the case sharding optimizes
(cross-shard federation is ROADMAP item 2, not M13).  Setup (signup,
enable, grant, login) runs **before** the first dispatch so the fork
engine's children inherit all of it through the fork; the posts ride
the first (discarded) warm batch.

Used by both ``test_bench_m13_shards.py`` (assertions + table) and
``record.py`` (BENCH_M13.json + the scaling regression guard), so
the two always measure the same thing.
"""

from __future__ import annotations

import os
import time
from typing import Any, Optional

from repro.apps import install_standard_apps
from repro.net import SESSION_COOKIE
from repro.net.http import HttpRequest
from repro.platform import Provider, ProviderConfig, ShardedProvider

#: Parity bound: a 1-shard sharded plane vs. the unsharded fast()
#: plane on the identical batch mix (floor over floor).  The short
#: circuit makes this one counter bump per batch: measured floors on
#: a quiet box are 0.94-1.0x.  The bound is wider than M11/M12's
#: 1.06x same-build allowance because these are two *different*
#: deployments on shared CI hardware — 1.10x still fails on any real
#: per-request router cost (a single extra dict probe per request
#: measures ~1.15x+ at this latency).
M13_MAX_ONE_SHARD_RATIO = 1.10
#: Scaling bound on a real multi-core box (4+ cores, os.fork): 4
#: shards must deliver at least 3x the aggregate throughput of 1.
M13_MIN_SCALING_SPEEDUP = 3.0
#: Cores needed before the 3x guard is meaningful.
M13_SCALING_MIN_CORES = 4
#: Degraded-mode floor everywhere else: 4 forked children
#: timeslicing a single core pay 4 sequential request planes plus
#: pipe serialization per batch, measured at 0.3-1.3x of the 1-shard
#: plane depending on contention.  The floor only catches collapse
#: (a lost child, a serialized engine, per-request pipe chatter),
#: not the timeslicing itself.
M13_MIN_DEGRADED_SPEEDUP = 0.25

N_USERS = 64
BURST_PER_USER = 4


def scaling_engine() -> str:
    """The engine the scaling run uses: fork wherever POSIX allows
    (the only engine that escapes the GIL), serial otherwise."""
    return "fork" if hasattr(os, "fork") else "serial"


def _populate(provider_like: Any, sharded: Optional[ShardedProvider],
              n_users: int) -> list[HttpRequest]:
    """Users, grants, sessions and the steady-state read burst.

    Everything here runs in the parent process — for the fork engine
    that means pre-fork, so every child inherits the accounts and
    sessions without a single pipe message.
    """
    users = [f"user{i}" for i in range(n_users)]
    for u in users:
        provider_like.signup(u, "pw")
        provider_like.enable_app(u, "blog")
        provider_like.grant_builtin_declassifier(
            u, "friends-only", {"friends": []})
    reads: list[HttpRequest] = []
    posts: list[HttpRequest] = []
    for u in users:
        if sharded is not None:
            home = sharded.map.shard_of_user(u)
            token = sharded.shards[home].sessions.login(u, "pw").token
            sharded._token_shard[token] = home
        else:
            token = provider_like.sessions.login(u, "pw").token
        cookies = {SESSION_COOKIE: token}
        posts.append(HttpRequest(method="GET", path="/app/blog/post",
                                 params={"title": f"t-{u}", "body": "b"},
                                 cookies=cookies))
        reads.extend(HttpRequest(method="GET", path="/app/blog/read",
                                 params={"title": f"t-{u}"},
                                 cookies=cookies)
                     for _ in range(BURST_PER_USER))
    warm = provider_like.handle_batch(posts)
    assert all(r.status == 200 for r in warm), "warm posts must land"
    return reads


def build_sharded(n_shards: int, engine: Optional[str] = None,
                  n_users: int = N_USERS
                  ) -> tuple[ShardedProvider, list[HttpRequest]]:
    sp = ShardedProvider(name="m13", n_shards=n_shards, engine=engine)
    install_standard_apps(sp)
    return sp, _populate(sp, sp, n_users)


def build_unsharded(n_users: int = N_USERS
                    ) -> tuple[Provider, list[HttpRequest]]:
    p = Provider(name="m13", config=ProviderConfig.fast())
    install_standard_apps(p)
    return p, _populate(p, None, n_users)


def measure_batch_seconds(provider_like: Any,
                          requests: list[HttpRequest],
                          loops: int = 8, repeat: int = 3) -> float:
    """Best-of seconds per request for the burst via handle_batch."""
    responses = provider_like.handle_batch(requests)  # warm
    assert all(r.status == 200 for r in responses)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(loops):
            provider_like.handle_batch(requests)
        best = min(best, time.perf_counter() - t0)
    return best / (len(requests) * loops)


def run_parity(n_users: int = N_USERS, loops: int = 8,
               repeat: int = 14) -> dict[str, Any]:
    """1-shard sharded plane vs. the unsharded fast() plane.

    The M11/M12 drift-resistant protocol: two builds per mode in
    alternating order (plain, sharded, sharded, plain), then
    interleaved measurement slices; each mode's latency is its floor
    across both builds, so build-to-build layout luck and container
    drift land on both modes alike.  ``unsharded_noise_ratio`` is the
    ratio of the two identical unsharded builds' floors, as M11/M12/
    M14 record: a parity ratio inside it is noise, not the router.
    """
    plain_builds = [build_unsharded(n_users)]
    sharded_builds = [build_sharded(1, n_users=n_users),
                      build_sharded(1, n_users=n_users)]
    plain_builds.append(build_unsharded(n_users))
    plain_by_build: tuple[list[float], list[float]] = ([], [])
    sharded_s: list[float] = []
    for _ in range(repeat):
        for slices, (p, reads) in zip(plain_by_build, plain_builds):
            slices.append(measure_batch_seconds(p, reads,
                                                loops=loops, repeat=1))
        for sp, reads in sharded_builds:
            sharded_s.append(measure_batch_seconds(sp, reads,
                                                   loops=loops, repeat=1))
    floor_a = min(plain_by_build[0])
    floor_b = min(plain_by_build[1])
    floor_plain = min(floor_a, floor_b)
    floor_sharded = min(sharded_s)
    return {
        "users": n_users,
        "unsharded_us": round(floor_plain * 1e6, 2),
        "one_shard_us": round(floor_sharded * 1e6, 2),
        "one_shard_ratio": round(floor_sharded / floor_plain, 3),
        "unsharded_noise_ratio": round(max(floor_a, floor_b)
                                       / floor_plain, 4),
        "unsharded_rps": round(1.0 / floor_plain, 1),
        "one_shard_rps": round(1.0 / floor_sharded, 1),
    }


def run_scaling(shard_counts: tuple[int, ...] = (1, 2, 4),
                n_users: int = N_USERS, loops: int = 8,
                repeat: int = 3) -> dict[str, Any]:
    """Aggregate throughput of the same burst at each shard count."""
    engine = scaling_engine()
    tiers: dict[str, Any] = {}
    per_request: dict[int, float] = {}
    for n in shard_counts:
        sp, reads = build_sharded(n, engine=engine if n > 1 else None,
                                  n_users=n_users)
        try:
            secs = measure_batch_seconds(sp, reads, loops=loops,
                                         repeat=repeat)
        finally:
            sp.shutdown()
        per_request[n] = secs
        tiers[f"shards_{n}"] = {
            "latency_us": round(secs * 1e6, 2),
            "throughput_rps": round(1.0 / secs, 1),
            "engine": sp.engine_name,
        }
    hi = max(shard_counts)
    speedup = per_request[1] / per_request[hi]
    return {
        "users": n_users, "burst": n_users * BURST_PER_USER,
        "engine": engine, "cores": os.cpu_count() or 1,
        "tiers": tiers,
        "speedup_max_vs_1": round(speedup, 2),
        "max_shards": hi,
    }


def scaling_guard(scaling: dict[str, Any]) -> dict[str, Any]:
    """The conditional regression verdict both consumers share.

    On a 4+-core POSIX box the 3x bar applies; elsewhere (this
    includes single-core CI runners and platforms without os.fork)
    only the graceful-degradation floor does, and the payload says
    which bar was in force so the recorded trajectory is comparable.
    """
    multicore = (scaling["cores"] >= M13_SCALING_MIN_CORES
                 and scaling["engine"] == "fork")
    bound = M13_MIN_SCALING_SPEEDUP if multicore \
        else M13_MIN_DEGRADED_SPEEDUP
    return {
        "speedup_max_vs_1": scaling["speedup_max_vs_1"],
        "min_speedup": bound,
        "multicore_bar": multicore,
        "regression": scaling["speedup_max_vs_1"] < bound,
    }
