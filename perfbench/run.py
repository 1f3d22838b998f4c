"""W5 benchmark: labeled reads, journaled writes with federation sync,
and the fork fleet.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload read_labeled --seed 1 \\
        --seconds 10 --trace 0

The timed phase is a fixed number of operations, ``--seconds`` times
the workload's nominal rate in ``perfbench/spec.json``, so every run
of a seed does the same work however fast the host is that day.
``--trace 0`` builds the deployment ``setup_repeats`` times (set-up
time is their median), drives the first build (the first
``replicas`` builds on write_federated) and prints the end-to-end
metrics.  ``--trace 1`` drives one untraced deployment and then one
traced deployment and prints the per-layer metrics; the Chrome trace
of the first requests goes to ``.perfbench_out/``.  Every response is
checked against the generator's model.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Throughput, mean read latency and CPU per request add
up the recurring chunks of the timed phase, each at the best of its
runs (see ``Run``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from time import perf_counter
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _best_of_chunks(run: Any) -> tuple[float, float, float]:
    """Throughput, mean read latency (us) and CPU per request (us) of
    the timed phase with each chunk at the best of its runs."""
    requests, reads, wall, read, cpu = (
        sum(column) for column in zip(*run.best.values()))
    return requests / (wall / 1e9), read / reads / 1e3, cpu / requests / 1e3


def end_to_end(run: Any, setups: list[float]) -> dict[str, tuple]:
    """Every end-to-end metric this run measured, as (value, unit)."""
    rate, read_mean, cpu = _best_of_chunks(run)
    m: dict[str, tuple] = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (rate, "req/s"),
        "read_mean_us": (read_mean, "us"),
        "read_p50_us": (_percentile(run.read_ns, 0.50) / 1e3, "us"),
        "read_p99_us": (_percentile(run.read_ns, 0.99) / 1e3, "us"),
        "cpu_us_per_req": (cpu, "us"),
        "peak_rss_mb": (run.rss_mib, "MiB"),
    }
    if run.write_ns:
        m["write_p50_us"] = (_percentile(run.write_ns, 0.50) / 1e3, "us")
        m["write_p99_us"] = (_percentile(run.write_ns, 0.99) / 1e3, "us")
    if run.sync_ns:
        m["sync_p50_ms"] = (_percentile(run.sync_ns, 0.50) / 1e6, "ms")
        m["sync_p90_ms"] = (_percentile(run.sync_ns, 0.90) / 1e6, "ms")
    if run.recover_s:
        m["recover_s"] = (statistics.median(run.recover_s), "s")
    return m


def per_layer(untraced: Any, traced: Any, problems: list[str]
              ) -> dict[str, tuple]:
    """Per-layer calls, self time and ratios from one traced run."""
    from layers import LAYERS, ROOT as ROOT_SPAN, diff
    d = diff(traced.trace_after, traced.trace_before)
    calls, self_ns, extra = d["calls"], d["self_ns"], d["extra"]
    c0, c1 = traced.counters_before, traced.counters_after
    c = {k: c1.get(k, 0) - c0.get(k, 0) for k in c1}
    n = traced.requests
    m: dict[str, tuple] = {}
    for layer in LAYERS:
        names = [k for k in calls if k.split(".")[0] == layer]
        m[f"{layer}.calls_per_req"] = (
            sum(calls[k] for k in names) / n, "calls/req")
        m[f"{layer}.self_us_per_req"] = (
            sum(self_ns.get(k, 0) for k in names) / n / 1e3, "us/req")

    def hit(prefix: str) -> float:
        hits = c.get(f"{prefix}.hits", 0)
        return _ratio(hits, hits + c.get(f"{prefix}.misses", 0))

    m["plans.hit_ratio"] = (hit("plans"), "ratio")
    m["capindex.hit_ratio"] = (hit("capindex"), "ratio")
    m["declassify.authority_hit_ratio"] = (hit("declassify"), "ratio")
    m["labels.flow_cache_hit_ratio"] = (hit("labels"), "ratio")
    m["labels.lookups_per_req"] = (
        (c.get("labels.hits", 0) + c.get("labels.misses", 0)) / n,
        "calls/req")
    m["pool.reuse_ratio"] = (_ratio(
        c.get("pool.reuses", 0),
        c.get("pool.reuses", 0) + c.get("pool.fresh_spawns", 0)), "ratio")
    m["gateway.deny_ratio"] = (_ratio(
        c.get("gateway.denied", 0),
        c.get("gateway.denied", 0) + c.get("gateway.allowed", 0)), "ratio")
    m["db.rows_scanned_per_returned"] = (_ratio(
        extra.get("db.rows_scanned", 0), extra.get("db.rows_returned", 0)),
        "ratio")
    m["db.partitions_skipped_ratio"] = (_ratio(
        c.get("db.partitions_skipped", 0),
        c.get("db.partitions_skipped", 0) + c.get("db.partitions_visible", 0)),
        "ratio")
    m["audit.records_per_req"] = (c.get("audit.recorded", 0) / n, "count")
    m["audit.dropped"] = (c.get("audit.dropped", 0), "count")
    m["journal.bytes_per_write"] = (_ratio(
        c.get("journal.bytes_written", 0), traced.writes), "B")
    m["journal.compactions"] = (c.get("journal.compactions", 0), "count")
    passes = len(traced.sync_ns)
    m["federation.items_per_pass"] = (_ratio(traced.sync_items, passes),
                                      "count")
    rounds = (c.get("federation.delta_rounds", 0)
              + c.get("federation.full_recons", 0))
    m["federation.full_recon_ratio"] = (_ratio(
        c.get("federation.full_recons", 0), rounds), "ratio")
    m["federation.records_tailed_per_item"] = (_ratio(
        extra.get("journal.records_tailed", 0), traced.sync_items), "ratio")
    m["federation.rows_per_post"] = (traced.rows_per_post, "ratio")
    m["envelopes.dedup_ratio"] = (_ratio(
        c.get("envelopes.deduped", 0),
        c.get("envelopes.deduped", 0) + c.get("envelopes.sent", 0)), "ratio")
    m["envelopes.bytes_per_item"] = (_ratio(
        c.get("envelopes.bytes", 0), c.get("envelopes.sent", 0)), "B")
    batches = extra.get("shards.batches", 0)
    m["shards.hop_us_per_batch"] = (_ratio(
        extra.get("shards.hop_ns", 0), batches) / 1e3, "us")
    m["shards.pickled_bytes_per_req"] = (_ratio(
        extra.get("shards.pickled_bytes", 0), n), "B")
    busy = [v for k, v in extra.items() if k.startswith("shards.busy_ns.")]
    m["shards.imbalance"] = (
        _ratio(max(busy), sum(busy) / len(busy)) if busy else 0.0, "ratio")
    m["residual_us_per_req"] = (self_ns.get(ROOT_SPAN, 0) / n / 1e3, "us")
    m["trace_overhead_ratio"] = (_ratio(
        untraced.requests / untraced.wall_s,
        traced.requests / traced.wall_s), "ratio")
    m["trace.wrapper_mismatches"] = (len(problems), "count")
    return m


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no W5 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from check import Checker
    from layers import LayerTracer, diff, validate
    from workloads import WORKLOADS, peak_rss_mib
    from world import stream_digest

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](spec["workloads"][args.workload],
                                        args.seed)
    digest = stream_digest(workload.stream(), spec["digest_ops"])
    n_ops = workload.ops_for(args.seconds)
    print(f"workload {args.workload} seed {args.seed} "
          f"stream digest {digest} operations {n_ops}")
    checker = Checker(workload.world.owner_of)

    if args.trace == 0:
        # the timed phase runs on the first ``replicas`` builds, on a
        # fresh heap; the other builds only time set-up again
        repeats = spec["workloads"][args.workload]["setup_repeats"]
        replicas = spec["workloads"][args.workload].get("replicas", 1)
        base_mib = peak_rss_mib([])
        setups, deployments = [], []
        try:
            for k in range(repeats):
                gc.collect()
                t0 = perf_counter()
                deployment = workload.build(None)
                setups.append(perf_counter() - t0)
                deployments.append(deployment)
                if k + 1 == replicas:
                    run = workload.drive(deployments, n_ops, checker, None)
                if k + 1 >= replicas:
                    for deployment in deployments:
                        workload.teardown(deployment)
                    deployments = []
        finally:
            for deployment in deployments:
                workload.teardown(deployment)
        deployment = deployments = None
        # one replica's share of the peak, beside the harness
        run.rss_mib = base_mib + (run.rss_mib - base_mib) / replicas
        report = end_to_end(run, setups)
        report["error_rate"] = (_ratio(checker.failed, checker.attempted),
                                "fraction")
        keep = [m["name"] for m in _benchmark()["end_to_end"]]
    else:
        deployment = workload.build(None)
        try:
            untraced = workload.drive([deployment], n_ops, checker, None)
        finally:
            workload.teardown(deployment)
        deployment = None
        gc.collect()
        tracer = LayerTracer()
        deployment = workload.build(tracer)
        try:
            traced = workload.drive([deployment], n_ops, checker, tracer)
        finally:
            workload.teardown(deployment)
        calls = diff(traced.trace_after, traced.trace_before)["calls"]
        counters = {k: v - traced.counters_before.get(k, 0)
                    for k, v in traced.counters_after.items()}
        problems = validate(calls, counters) + tracer.skipped
        for problem in problems:
            print(f"WRAPPER MISMATCH: {problem}")
        report = per_layer(untraced, traced, problems)
        out = os.path.join(ROOT, ".perfbench_out",
                           f"trace-{args.workload}-{args.seed}.json")
        tracer.write_chrome_trace(out)
        print(f"chrome trace: {os.path.relpath(out, ROOT)}")
        keep = [m["name"] for m in _benchmark()["per_layer"]]

    for name, (value, unit) in sorted(report.items()):
        print(f"{name:40s} {value:14.4f} {unit}")
    print(f"checks: {checker.attempted} attempted, {checker.failed} failed "
          f"{checker.reasons or ''}")
    for example in checker.examples:
        print(f"  failure: {example}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": report[name][0],
                           "unit": report[name][1]}
                    for name in keep if name in report},
    }
    print(json.dumps(result))
    return 0


def _benchmark() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
