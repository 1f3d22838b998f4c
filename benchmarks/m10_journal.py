"""M10 shared harness: incremental durability vs. full-snapshot cost.

Builds a provider with ``n_users`` accounts (each with a home file,
every 16th with a declassifier grant), checkpoints it, dirties a
``dirty_frac`` fraction of the accounts, and measures:

* **snapshot latency** — a full ``snapshot_provider`` walks every
  account, file, row, and grant (O(total state)); the incremental path
  emits only what changed since the checkpoint (O(dirty)), so the gap
  widens linearly with deployment size;
* **mutation throughput** — the journaled provider pays one
  checksummed JSON-line append per durable mutation; we run the
  representative W5 write mix (a user-data file write, a profile
  update, and an app db write through the request plane) against the
  ``incremental_persistence=False`` baseline and report the overhead
  ratio, plus the worst-case direct-API ratio (no request plane to
  amortize the append);
* **recovery** — base snapshot + journal replay back to a live
  provider, timed, with the record count from the replay report.

Used by both ``test_bench_m10_journal.py`` (assertions + table) and
``record.py`` (BENCH_M10.json + the 3x regression guard), so the two
always measure the same thing.

Plain imports only: ``record.py`` runs as a script, so this module
must work without the package context.
"""

from __future__ import annotations

import copy
import json
import time
from typing import Any, Callable

from repro.apps import STANDARD_CATALOG, install_standard_apps
from repro.net import ExternalClient
from repro.platform import (Provider, ProviderConfig, recover_provider,
                            snapshot_provider)


def _best_seconds(fn, *, n: int, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n


def _snapshot_bytes(state: dict) -> int:
    """Size of the snapshot as serialized JSON (the artifact a real
    deployment would ship); bytes payloads are hex-encoded."""
    return len(json.dumps(
        state, default=lambda o: o.hex()
        if isinstance(o, (bytes, bytearray)) else repr(o)))


def build_provider(n_users: int, incremental: bool,
                   compact_bytes: int = 1 << 26) -> Provider:
    """A deployment with per-user home files and some policy state.

    ``compact_bytes`` is set high so measurements see pure deltas; the
    compaction path itself is exercised by the tier-1 tests.
    """
    p = Provider(name=f"m10-{'incr' if incremental else 'naive'}"
                      f"-{n_users}",
                 config=ProviderConfig(
                     incremental_persistence=incremental,
                     journal_compact_bytes=compact_bytes))
    install_standard_apps(p)
    for i in range(n_users):
        u = f"user{i:05d}"
        p.signup(u, "pw")
        p.store_user_data(u, "home.txt", f"home of {u} " + "x" * 64)
        if i % 16 == 0:
            p.grant_builtin_declassifier(u, "public", {})
    return p


def run_tier(n_users: int, dirty_frac: float = 0.01,
             repeat: int = 3) -> dict[str, Any]:
    """One deployment-size measurement: full vs. incremental snapshot
    latency at ``dirty_frac`` dirty accounts, plus recovery timing."""
    p = build_provider(n_users, incremental=True)
    p._durability.checkpoint()

    n_dirty = max(1, int(n_users * dirty_frac))
    for i in range(n_dirty):
        u = f"user{i:05d}"
        p.set_profile(u, mood=f"m{i}")
        p.store_user_data(u, "note.txt", f"note {i}")

    full_s = _best_seconds(lambda: snapshot_provider(p),
                           n=1, repeat=repeat + 2)
    incr_s = _best_seconds(
        lambda: snapshot_provider(p, incremental=True),
        n=10, repeat=repeat)

    full_bytes = _snapshot_bytes(snapshot_provider(p))
    delta_bytes = _snapshot_bytes(snapshot_provider(p, incremental=True))

    base = copy.deepcopy(p._durability.base)
    raw = p._durability.journal.raw_bytes()
    t0 = time.perf_counter()
    recovered, report = recover_provider(base, raw,
                                         app_catalog=STANDARD_CATALOG)
    recover_s = time.perf_counter() - t0
    assert recovered.read_user_data("user00000", "note.txt") == "note 0"

    return {
        "users": n_users,
        "dirty": n_dirty,
        "full_ms": round(full_s * 1e3, 3),
        "incremental_ms": round(incr_s * 1e3, 3),
        "snapshot_speedup": round(full_s / incr_s, 1),
        "full_bytes": full_bytes,
        "delta_bytes": delta_bytes,
        "bytes_ratio": round(full_bytes / max(delta_bytes, 1), 1),
        "recover_ms": round(recover_s * 1e3, 3),
        "records_replayed": report["records_replayed"],
        "journal_stats": p.persistence_stats(),
    }


def _client(p: Provider, username: str) -> ExternalClient:
    p.enable_app(username, "blog", allow_write=True)
    client = ExternalClient(username, p.transport())
    client.login("pw")
    return client


def _mutation_workloads(n_users: int, incremental: bool
                        ) -> dict[str, Callable[[], None]]:
    """One build's ``mix`` and ``direct`` iterations (see
    :func:`mutation_overhead`)."""
    p = build_provider(n_users, incremental=incremental)
    if incremental:
        p._durability.checkpoint()
    client = _client(p, "user00000")
    count = iter(range(10_000_000))

    def mix():
        i = next(count)
        u = f"user{i % n_users:05d}"
        p.store_user_data(u, f"mix{i}.txt", "payload " * 8)
        p.set_profile(u, seq=str(i))
        client.get("/app/blog/post", title=f"t{i}", body="b" * 32)

    def direct():
        i = next(count)
        u = f"user{i % n_users:05d}"
        p.store_user_data(u, f"dir{i}.txt", "payload " * 8)
        p.set_profile(u, seq=str(i))

    return {"mix": mix, "direct": direct}


def mutation_overhead(n_users: int = 200, n: int = 200,
                      repeat: int = 3) -> dict[str, Any]:
    """Journaled vs. no-journal mutation throughput, same workload.

    ``mix`` is the representative W5 write path: one user-data file
    write + one profile update + one app db write through the request
    plane per iteration.  ``direct`` is the adversarial case — just
    the two direct API mutations, nothing to amortize the journal
    append against.

    The house drift-resistant protocol (as M11-M14): four builds made
    up front in alternating order (naive, journaled, journaled, naive),
    one discarded warm-up slice each, then ``4 * repeat`` rounds that
    run one slice of ``n // 4`` iterations of each workload on every
    build in turn, so host drift lands on both modes alike.  A mode's
    cost is its least slice over both of its builds.  The two naive
    builds' floors bound the noise: ``naive_noise_ratio`` is the larger
    of their ratios over the two workloads, and an overhead inside it
    is noise, not the journal.
    """
    modes = (False, True, True, False)
    builds = [_mutation_workloads(n_users, incremental)
              for incremental in modes]
    size = max(1, n // 4)
    for build in builds:
        for fn in build.values():
            _best_seconds(fn, n=size, repeat=1)
    slices: list[dict[str, list[float]]] = [
        {"mix": [], "direct": []} for __ in builds]
    for __ in range(4 * repeat):
        for build, out in zip(builds, slices):
            for name, fn in build.items():
                out[name].append(_best_seconds(fn, n=size, repeat=1))

    floors = [{name: min(times) for name, times in out.items()}
              for out in slices]

    def floor_us(incremental: bool, name: str) -> float:
        return round(min(floor[name] for floor, mode in zip(floors, modes)
                         if mode == incremental) * 1e6, 2)

    naive_a, naive_b = floors[0], floors[3]
    noise = max(max(naive_a[name], naive_b[name])
                / min(naive_a[name], naive_b[name]) for name in naive_a)
    journaled_mix, naive_mix = floor_us(True, "mix"), floor_us(False, "mix")
    journaled_direct = floor_us(True, "direct")
    naive_direct = floor_us(False, "direct")
    return {
        "users": n_users,
        "journaled_mix_us": journaled_mix,
        "naive_mix_us": naive_mix,
        "mix_overhead": round(journaled_mix / naive_mix, 3),
        "journaled_direct_us": journaled_direct,
        "naive_direct_us": naive_direct,
        "direct_overhead": round(journaled_direct / naive_direct, 3),
        "naive_noise_ratio": round(noise, 4),
    }
