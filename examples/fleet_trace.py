#!/usr/bin/env python3
"""Fleet-wide observability: one trace tree across shards + providers.

Builds the two fan-out topologies M16 stitches back together:

1. a 4-shard :class:`ShardedProvider` — a traced batch fans across
   shards, and the router's ``router.batch`` trace grafts every
   shard's request tree under one root;
2. a 2-provider :class:`FederationFabric` — a ``sync_user`` round
   carries the ``fed.sync`` root's context across the link, so the
   destination provider's ``fed.envelope`` span re-parents under it;

then shows the fleet surfaces built on top: the merged
``trace_report``, the :class:`FleetRegistry` metrics merge with its
Prometheus exposition, the health rollup through a crash/recover
cycle, and a combined Chrome trace artifact (load it in Perfetto or
chrome://tracing; CI uploads it on every push).

Run: ``python examples/fleet_trace.py [out.json]``
(writes the Chrome trace to ``out.json``, default ``fleet_trace.json``)
"""

import json
import sys

from repro.apps import install_standard_apps
from repro.core import Metrics
from repro.federation import FederationFabric
from repro.net import ExternalClient
from repro.net.http import HttpRequest
from repro.obs import (FleetRegistry, chrome_trace, render_text,
                       validate_chrome_trace)
from repro.platform import ShardedProvider


def sharded_batch_trace() -> list[dict]:
    """Drive a cross-shard batch; return the stitched trace dicts."""
    print("== 4-shard batch: one stitched router.batch tree ==")
    sp = ShardedProvider(n_shards=4, engine="serial", tracing=True)
    sp.tracer.fold_every = 1
    install_standard_apps(sp)
    users = ["alice", "bob", "carol", "dave", "erin", "frank"]
    clients = {}
    for u in users:
        c = ExternalClient(u, sp.transport())
        c.post("/signup", params={"username": u, "password": "pw"})
        c.login("pw")
        c.post("/policy/enable", params={"app": "blog"})
        clients[u] = c
    reqs = [HttpRequest("POST", "/app/blog/post",
                        params={"title": f"{u}-day1", "body": "..."},
                        cookies=dict(clients[u].cookies))
            for u in users]
    resps = sp.handle_batch(reqs)
    assert all(r.status == 200 for r in resps)

    batches = [t for t in sp.recorder.dump()["slowest"]
               if t["root"] and t["root"]["name"] == "router.batch"]
    (batch,) = batches
    print(render_text(batch))
    print(f"-> {batch['grafts']} request trees grafted from "
          f"{batch['root']['attrs']['shards']} shards, "
          f"{batch['orphan_grafts']} orphans")

    report = sp.trace_report()
    print(f"-> merged report: {report['stats']['traces_finished']} "
          f"traces across {sp.n_shards} shards, "
          f"{len(report['latencies'])} span names")

    print("\n== fleet metrics registry ==")
    registry = FleetRegistry()
    for k, shard in enumerate(sp.shards):
        registry.attach(f"shard:{k}",
                        Metrics(shard.kernel.audit).attach(shard))
    registry.attach_health("deployment", sp)
    # observe a second batch so the shard Metrics see live traffic
    sp.handle_batch([
        HttpRequest("GET", "/app/blog/list",
                    cookies=dict(clients[u].cookies))
        for u in users])
    snapshot = registry.snapshot()
    top = dict(sorted(snapshot["counters"].items(),
                      key=lambda kv: -kv[1])[:3])
    print(f"-> merged counters over {len(snapshot['members'])} members"
          f" (top 3): {top}")
    exposition = registry.prometheus()
    print("-> prometheus exposition (first lines):")
    for line in exposition.splitlines()[:6]:
        print(f"   {line}")
    print(f"-> health: {registry.health_report()['state']}")
    return batches


def federated_sync_trace() -> list[dict]:
    """Crash/recover a fabric; return the stitched fed.sync traces."""
    print("\n== 2-provider federation: fed.sync across the link ==")
    fabric = FederationFabric(2, tracing=True)
    for provider in fabric.providers:
        provider.tracer.fold_every = 1
    home = fabric.signup("grace", "pw")
    fabric.mirror("grace", 1 - home)
    fabric.store_user_data("grace", "notes", "v1")
    fabric.sync_user("grace")
    # dirty the home copy so the next round ships an envelope batch
    from repro.fs import FsView
    provider = fabric.provider(home)
    agent = provider._user_agent(provider.account("grace"))
    FsView(provider.fs, agent).write("/users/grace/notes", "v2")
    provider.kernel.exit(agent)
    fabric.sync_user("grace")

    lower = fabric.provider(0)
    syncs = [t for t in lower.recorder.dump()["slowest"]
             if t["root"] and t["root"]["name"] == "fed.sync"]
    print(render_text(syncs[-1]))
    grafted = sum(t.get("grafts", 0) for t in syncs)
    print(f"-> {len(syncs)} fed.sync trees kept, {grafted} remote "
          f"envelope spans grafted across the link")

    print("\n== health through a crash/recover cycle ==")
    for step in ("baseline", "crash", "recover", "sync"):
        if step == "crash":
            fabric.crash(home)
        elif step == "recover":
            fabric.recover(home)
        elif step == "sync":
            fabric.sync_user("grace")
        report = fabric.health_report()
        link = report["links"]["link:0<->1"]
        print(f"   after {step:<8} fleet={report['state']:<9} "
              f"provider:{home}="
              f"{report['providers'][f'provider:{home}']['state']:<9} "
              f"link={link['state']}"
              + (f"  ({link['reasons'][0]})" if link["reasons"] else ""))
    assert report["state"] == "ok"
    return syncs


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "fleet_trace.json"
    traces = sharded_batch_trace() + federated_sync_trace()

    doc = chrome_trace(traces, process_name="w5-fleet")
    error = validate_chrome_trace(doc)
    assert error is None, error
    with open(out_path, "w") as f:
        json.dump(doc, f)
    print(f"\nwrote {len(doc['traceEvents'])} Chrome trace events "
          f"({len(traces)} stitched trees) to {out_path}")


if __name__ == "__main__":
    main()
