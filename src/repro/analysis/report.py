"""Experiment reporting: turn benchmark JSON into the results tables.

``pytest benchmarks/ --benchmark-only --benchmark-json=out.json`` emits
machine-readable timings; this module renders them into the M-series
table EXPERIMENTS.md carries, so the numbers in the documentation are
regenerable with one command::

    python -m repro.analysis out.json

The module is dependency-light on purpose (stdlib json only) so it
works in stripped environments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable


@dataclass(frozen=True)
class BenchRow:
    """One benchmark's summary statistics."""

    name: str
    group: str
    median_s: float
    mean_s: float
    stddev_s: float
    rounds: int

    def human_median(self) -> str:
        s = self.median_s
        if s < 1e-6:
            return f"{s * 1e9:.0f} ns"
        if s < 1e-3:
            return f"{s * 1e6:.1f} µs"
        if s < 1.0:
            return f"{s * 1e3:.2f} ms"
        return f"{s:.2f} s"


def parse_benchmark_json(data: dict[str, Any]) -> list[BenchRow]:
    """Parse the pytest-benchmark JSON structure."""
    rows = []
    for bench in data.get("benchmarks", []):
        stats = bench.get("stats", {})
        name = bench.get("name", "?")
        rows.append(BenchRow(
            name=name,
            group=_group_of(name),
            median_s=float(stats.get("median", 0.0)),
            mean_s=float(stats.get("mean", 0.0)),
            stddev_s=float(stats.get("stddev", 0.0)),
            rounds=int(stats.get("rounds", 0))))
    rows.sort(key=lambda r: (r.group, r.median_s))
    return rows


def _group_of(name: str) -> str:
    """Experiment id from a bench name (test_bench_m1_... -> M1)."""
    parts = name.split("_")
    for part in parts:
        stripped = part.split("[")[0]
        if len(stripped) >= 2 and stripped[0] in "aecm" \
                and stripped[1:].isdigit():
            return stripped.upper()
    return "OTHER"


def markdown_table(rows: Iterable[BenchRow]) -> str:
    """The timing table, markdown-formatted."""
    lines = ["| experiment | benchmark | median | rounds |",
             "|---|---|---|---|"]
    for row in rows:
        short = row.name.replace("test_bench_", "")
        lines.append(f"| {row.group} | `{short}` | "
                     f"{row.human_median()} | {row.rounds} |")
    return "\n".join(lines)


def overhead_factors(rows: Iterable[BenchRow]) -> dict[str, float]:
    """Headline ratios the EXPERIMENTS M-section quotes.

    Returns whatever pairs are present in the data; absent benches are
    simply omitted.
    """
    by_name = {r.name.split("[")[0]: r for r in rows}
    factors: dict[str, float] = {}

    def ratio(key: str, num: str, den: str) -> None:
        if num in by_name and den in by_name and by_name[den].median_s:
            factors[key] = by_name[num].median_s / by_name[den].median_s

    ratio("request_vs_bare", "test_bench_m2_w5_request",
          "test_bench_m2_unprotected_handler")
    ratio("request_vs_static", "test_bench_m2_w5_request",
          "test_bench_m2_static_route")
    ratio("ipc_vs_bare", "test_bench_m4_send_receive",
          "test_bench_m4_unmonitored_baseline")
    ratio("db_vs_bare", "test_bench_m5_cleared_full_scan",
          "test_bench_m5_unlabeled_baseline")
    return factors


def render_report(json_path: str) -> str:
    """Load a benchmark JSON file and render the full report."""
    with open(json_path) as fh:
        data = json.load(fh)
    rows = parse_benchmark_json(data)
    out = ["# Benchmark timing report", "", markdown_table(rows), ""]
    factors = overhead_factors(rows)
    if factors:
        out.append("## Overhead factors")
        out.append("")
        for key, value in sorted(factors.items()):
            out.append(f"- {key}: {value:.1f}x")
    return "\n".join(out)
