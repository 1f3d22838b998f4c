"""The ``plan`` subcommand: render a compiled request plan.

``Provider.explain(app, viewer)`` dumps the compiled
:class:`~repro.platform.plans.RequestPlan` for one (app, viewer) pair
as a JSON-serializable dict — the launch capabilities, pool key,
partition verdicts, egress verdict and the epoch stamps that guard the
plan's validity.  This module turns a saved copy of that dict into the
operator view::

    python -m repro.analysis plan explain.json

Produce the input with ``json.dump(provider.explain("blog", "alice"),
open("explain.json", "w"))``.  Dependency-light on purpose (stdlib
json only), mirroring :mod:`repro.analysis.tracecmd`.
"""

from __future__ import annotations

import json
import sys
from typing import Any


def render_plan(desc: dict[str, Any]) -> str:
    """The operator view of one ``Provider.explain`` dump."""
    out = ["# Request plan", ""]
    app = desc.get("app", "?")
    viewer = desc.get("viewer")
    if not desc.get("planned"):
        out.append(f"- app: `{app}`  viewer: `{viewer or 'anonymous'}`")
        out.append("- **not planned** — this pair takes the generic path")
        reason = desc.get("reason")
        if reason:
            out.append(f"- reason: {reason}")
        return "\n".join(out)
    app_info = desc.get("app", {})
    out.append(f"- app: `{app_info.get('name')}` "
               f"v{app_info.get('version')} "
               f"(developer: {app_info.get('developer')})")
    out.append(f"- viewer: `{viewer or 'anonymous'}`")
    if "provider" in desc:
        out.append(f"- provider: `{desc['provider']}`")
    if "dispatch_enabled" in desc:
        state = "enabled" if desc["dispatch_enabled"] else \
            "disabled (plan compiled on demand)"
        out.append(f"- planned dispatch: {state}")

    pool = desc.get("pool_key", {})
    out += ["", "## Launch", "",
            f"- process: `{desc.get('process_name')}`",
            f"- pool key: name=`{pool.get('name')}` "
            f"S={pool.get('slabel')} I={pool.get('ilabel')} "
            f"({pool.get('caps', 0)} caps)"]
    caps = desc.get("launch_caps", [])
    out.append(f"- launch capabilities ({len(caps)}):")
    for cap in caps:
        out.append(f"  - `{cap}`")

    egress = desc.get("egress", {})
    out += ["", "## Egress", ""]
    if egress.get("precomputed"):
        auth = egress.get("authority") or []
        out.append(f"- export authority precomputed ({len(auth)} caps)")
        for cap in auth:
            out.append(f"  - `{cap}`")
    else:
        out.append("- export authority resolved live (a time-dependent "
                   "declassifier grant exists)")
    out.append(f"- allow-audit detail: \"{egress.get('allow_detail')}\"")

    epochs = desc.get("epochs", {})
    out += ["", "## Validity (epoch stamps)", "",
            f"- capability index: {epochs.get('capindex')}",
            f"- export authority: {epochs.get('authority')}",
            f"- app registry: {epochs.get('registry')}"]

    verdicts = desc.get("partition_verdicts", [])
    if verdicts:
        out += ["", "## Partition verdicts", ""]
        for entry in verdicts:
            subj = entry.get("subject", {})
            out.append(f"- subject S={subj.get('slabel')} "
                       f"I={subj.get('ilabel')} "
                       f"({subj.get('caps', 0)} caps):")
            for part in entry.get("partitions", []):
                verdict = "read" if part.get("readable") else "skip"
                out.append(f"  - {verdict}: S={part.get('slabel')} "
                           f"I={part.get('ilabel')}")
    else:
        out += ["", "## Partition verdicts", "",
                "- none cached yet (populated lazily as requests scan)"]

    config = desc.get("config")
    if config:
        out += ["", "## Provider config", ""]
        for key, value in sorted(config.items()):
            out.append(f"- {key}: {value}")
    return "\n".join(out)


def run(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python -m repro.analysis plan <explain.json>\n"
              "(produce the input by json.dump-ing "
              "Provider.explain(app, viewer))", file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as fh:
        desc = json.load(fh)
    print(render_plan(desc))
    return 0
