"""M12 shared harness: compiled request plans on the M8 mix.

Two questions, measured separately because they bound different
things:

* **end to end** — the same fully labeled blog read as M8
  (authenticate → pool checkout → labeled row read → export check →
  egress), planned vs. unplanned.  Plans only replace the *pure
  recomputation* in that pipeline; the spawn, the label change, the
  exit, five audit records and the charges are mandated observables
  (the differential suite pins them byte-identical), so the
  end-to-end win is the interpretation overhead and nothing more;
* **the cached read** — the compiled decision path itself on a plan
  hit: one ``PlanCache.lookup`` (dict probe + three epoch compares +
  the live account-policy check), the finished pool key, the
  state-keyed partition read verdicts for the blog table, and the
  precomputed egress verdict.  This is the per-request decision cost
  the plan reduces the control plane to, and the number the sub-10µs
  target governs.  It is *not* an end-to-end latency — the labeled
  read's mandated observables put the request floor well above it by
  design.

The end-to-end comparison runs under the M11 drift-resistant
protocol: two builds per mode in alternating order (off, on, on,
off), warmup loops discarded, then interleaved ~10ms slices with
per-mode floors, so container drift lands on both modes alike.  The
two unplanned builds bound the noise floor exactly as M11's two
``tracing=False`` builds do.

Used by both ``test_bench_m12_plans.py`` (assertions + table) and
``record.py`` (BENCH_M12.json + the 3x regression guard), so the two
always measure the same thing.

Plain imports only: ``record.py`` runs as a script, so this module
must work without the package context (hence the dual import of the
M8 measurement loop).
"""

from __future__ import annotations

import time
from typing import Any

try:  # package context (pytest)
    from .m8_scaling import measure_request_seconds
except ImportError:  # script context (record.py)
    from m8_scaling import measure_request_seconds

from repro import W5System
from repro.net import HttpRequest
from repro.platform import ProviderConfig

#: The cached-read budget: the compiled decision path on a plan hit.
#: Measured cost is ~1-3us — a dict probe, three int compares, the
#: account-policy check, one state-keyed verdict-table read over the
#: blog table's partitions and two attribute loads for egress — so
#: 10us leaves 3x+ headroom while still catching a decision path that
#: quietly starts re-deriving caps or authority per request (the
#: interpreted derivation alone measures 15us+).
M12_MAX_CACHED_READ_US = 10.0
#: Planned-over-unplanned budget on the M8 mix (floor over floor).
#: Plans must *win*: measured ~0.78x (the ~15us of per-request
#: interpretation they remove from a ~70us read).  0.95 leaves room
#: for build-to-build layout luck while failing if planned dispatch
#: ever stops paying for itself.
M12_MAX_PLANNED_RATIO = 0.95
#: Two identical unplanned builds must reproduce each other's floor —
#: same noise bound as M11, same reasoning (incl. the post-M14
#: recalibration: fixed layout deltas over a squeezed floor).
M12_MAX_UNPLANNED_NOISE = 1.09


def build_deployment(n_users: int, plans: bool) -> tuple[W5System, Any]:
    """The M8 deployment, configured through the M12 config API.

    Identical to the M8 builder except the mode switch is
    ``ProviderConfig.fast()`` (request plans on) vs. the interpreted
    reference plane ``ProviderConfig(request_plans=False)`` (everything
    else on) — so the measured delta is planned dispatch alone.
    """
    config = (ProviderConfig.fast() if plans
              else ProviderConfig(request_plans=False))
    w5 = W5System(name=f"m12-{'planned' if plans else 'unplanned'}",
                  config=config, audit_max_events=20_000)
    driver = w5.add_user("user0", apps=("blog",))
    provider = w5.provider
    for i in range(1, n_users):
        name = f"user{i}"
        provider.signup(name, "pw")
        provider.enable_app(name, "blog")
        provider.grant_builtin_declassifier(
            name, "friends-only", {"friends": []})
    driver.get("/app/blog/post", title="t0", body="hello world")
    resp = driver.get("/app/blog/read", title="t0")
    assert resp.ok and resp.body["body"] == "hello world"
    return w5, driver


class _SubjectState:
    """A label-state stand-in for ``RequestPlan.read_verdicts``."""

    __slots__ = ("slabel", "ilabel", "caps")

    def __init__(self, state: tuple) -> None:
        self.slabel, self.ilabel, self.caps = state


def measure_cached_read_seconds(w5: W5System, n: int = 20_000,
                                repeat: int = 5) -> float:
    """Seconds per compiled decision path on a plan hit.

    Replays exactly the plan reads the planned dispatch loop performs
    per steady-state request — lookup, pool key, the partition
    verdicts for the label state a real tainted read runs in (captured
    from the warmed plan, so it is the state requests actually hit),
    and the precomputed egress verdict — without the mandated
    spawn/label-change/exit observables around them.
    """
    provider = w5.provider
    plans = provider.plans
    declass = provider.declass
    plan = plans.lookup("blog", "user0")
    # the warmed plan holds the tainted-read label state in its dict
    # verdict table, or in the dense slot rows when the M14
    # verdict_slots flag routes the scan through read_verdict_row
    states = plan._verdicts or plan._slot_rows if plan is not None else None
    assert states, "warm the plan first"
    subject = _SubjectState(next(iter(states)))
    pkeys = list(provider.db._tables["blog_posts"].partitions)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(n):
            plan = plans.lookup("blog", "user0")
            key = plan.pool_key
            verdicts = plan.read_verdicts(subject, pkeys)
            exportable = (plan.authority is not None
                          and plan.auth_epoch == declass.authority_epoch)
        best = min(best, time.perf_counter() - t0)
    assert key[0] == "app:blog" and exportable and verdicts
    return best / n


def measure_batch_seconds(w5: W5System, burst: int = 50,
                          loops: int = 40, repeat: int = 3) -> float:
    """Seconds per request through ``handle_batch``."""
    provider = w5.provider
    session = provider.sessions.login("user0", "pw").token
    requests = [HttpRequest(method="GET", path="/app/blog/read",
                            params={"title": "t0"},
                            cookies={"w5_session": session})
                for _ in range(burst)]
    provider.handle_batch(requests)  # warm
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(loops):
            provider.handle_batch(requests)
        best = min(best, time.perf_counter() - t0)
    return best / (burst * loops)


def run_comparison(n_users: int = 100, n: int = 150,
                   reps: int = 20) -> dict[str, Any]:
    """The M12 headline: planned vs. unplanned cost on the M8 mix.

    The M11 protocol verbatim (see :mod:`m11_tracing` for the full
    rationale): four deployments built up front in alternating order
    (unplanned, planned, planned, unplanned), discarded warmups, then
    ``reps`` rounds of interleaved ~10ms slices; each mode's latency
    is its minimum slice across both builds, and the two unplanned
    builds' floors bound the noise.
    """
    w5_off, drv_off = build_deployment(n_users, plans=False)
    w5_on, drv_on = build_deployment(n_users, plans=True)
    w5_on2, drv_on2 = build_deployment(n_users, plans=True)
    w5_off2, drv_off2 = build_deployment(n_users, plans=False)
    off_drivers = (drv_off, drv_off2)
    on_drivers = (drv_on, drv_on2)
    for drv in off_drivers + on_drivers:
        measure_request_seconds(drv, n=n, repeat=2)
    off_by_build: tuple[list[float], list[float]] = ([], [])
    on: list[float] = []
    for _ in range(reps):
        for slices, drv in zip(off_by_build, off_drivers):
            slices.append(measure_request_seconds(drv, n=n, repeat=1))
        for drv in on_drivers:
            on.append(measure_request_seconds(drv, n=n, repeat=1))
    floor_a = min(off_by_build[0])
    floor_b = min(off_by_build[1])
    noise = max(floor_a, floor_b) / min(floor_a, floor_b)
    off = sorted(off_by_build[0] + off_by_build[1])
    on.sort()

    cached = measure_cached_read_seconds(w5_on)
    batch = measure_batch_seconds(w5_on)
    provider = w5_on.provider
    unplanned: dict[str, Any] = {
        "users": n_users, "request_plans": False,
        "latency_us": round(off[0] * 1e6, 2),
        "best_slices_us": [round(s * 1e6, 2) for s in off[:4]],
        "throughput_rps": round(1.0 / off[0], 1),
    }
    planned: dict[str, Any] = {
        "users": n_users, "request_plans": True,
        "latency_us": round(on[0] * 1e6, 2),
        "best_slices_us": [round(s * 1e6, 2) for s in on[:4]],
        "throughput_rps": round(1.0 / on[0], 1),
        "batch_latency_us": round(batch * 1e6, 2),
        "plans": provider.plans.stats(),
    }
    interp_us = max(off[0] - on[0], 0.0) * 1e6
    cached_us = cached * 1e6
    return {
        "unplanned": unplanned,
        "planned": planned,
        "cached_read_us": round(cached_us, 3),
        "interpretation_removed_us": round(interp_us, 2),
        "decision_speedup": round(interp_us / cached_us, 2)
        if cached_us else float("inf"),
        "unplanned_noise_ratio": round(noise, 4),
        "planned_ratio": round(on[0] / off[0], 4),
        "max_cached_read_us": M12_MAX_CACHED_READ_US,
        "max_planned_ratio": M12_MAX_PLANNED_RATIO,
        "max_unplanned_noise": M12_MAX_UNPLANNED_NOISE,
    }
