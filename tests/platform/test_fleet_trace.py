"""Cross-shard trace propagation and stitching (M16).

A batch fanned across shards used to produce N disconnected per-shard
traces; since M16 the router opens one ``router.batch`` root, ships its
:class:`~repro.obs.TraceContext` with each sub-batch, and grafts the
returned skeletons into one causal tree.  These tests pin the stitch:
exactly one root per request, deterministic merge order (differential
vs the serial engine), skeletons surviving the fork engine's pipe, and
counted — never silent — span loss under the overflow budget.
"""

import os

import pytest

from repro.apps import install_standard_apps
from repro.net import ExternalClient
from repro.net.http import HttpRequest
from repro.obs import Tracer, validate_chrome_trace
from repro.obs.export import chrome_trace
from repro.platform import ShardedProvider

USERS = ["alice", "bob", "carol", "dave"]


def build_traced(n_shards, engine, users=USERS, fold_every=1):
    sp = ShardedProvider(n_shards=n_shards, engine=engine, tracing=True)
    sp.tracer.fold_every = fold_every
    install_standard_apps(sp)
    clients = {}
    for u in users:
        c = ExternalClient(u, sp.transport())
        c.post("/signup", params={"username": u, "password": "pw"})
        c.login("pw")
        c.post("/policy/enable", params={"app": "blog"})
        clients[u] = c
    return sp, clients


def cross_shard_batch(sp, clients):
    """One blog post per user, spanning >= 2 shards."""
    reqs = [HttpRequest("POST", "/app/blog/post",
                        params={"title": f"{u}-t", "body": "b"},
                        cookies=dict(c.cookies))
            for u, c in sorted(clients.items())]
    shards = {sp.map.shard_of_user(u) for u in clients}
    assert len(shards) >= 2, "test users must span shards"
    return reqs


def stitched_batches(sp):
    """The router recorder's router.batch trace dicts."""
    return [t for t in sp.recorder.dump()["slowest"]
            if t["root"] and t["root"]["name"] == "router.batch"]


def shape(span):
    """A trace subtree reduced to its deterministic skeleton."""
    return (span["name"], span["attrs"].get("origin"),
            [shape(c) for c in span["children"]])


class TestStitchedTree:
    def test_one_root_per_request(self):
        sp, clients = build_traced(2, "serial")
        reqs = cross_shard_batch(sp, clients)
        resps = sp.handle_batch(reqs)
        assert all(r.status == 200 for r in resps)
        (batch,) = stitched_batches(sp)
        root = batch["root"]
        assert root["attrs"]["n"] == len(reqs)
        assert root["attrs"]["shards"] == 2
        # every request's trace arrives as exactly one grafted child
        # under the router root: one root per request, no orphans
        grafted = [c for c in root["children"] if "origin" in c["attrs"]]
        assert len(grafted) == len(reqs)
        assert batch["grafts"] == len(reqs)
        assert batch["orphan_grafts"] == 0
        origins = {c["attrs"]["origin"] for c in grafted}
        assert origins == {"shard:0", "shard:1"}
        for child in grafted:
            assert child["name"].startswith("POST /app/blog/post")
            assert "remote_trace_id" in child["attrs"]
            # the fold decision traveled: full subtree, not root-only
            assert child["children"]

    def test_chrome_export_of_stitched_tree(self):
        sp, clients = build_traced(2, "serial")
        sp.handle_batch(cross_shard_batch(sp, clients))
        (batch,) = stitched_batches(sp)
        doc = chrome_trace([batch])
        assert validate_chrome_trace(doc) is None
        names = {e["name"] for e in doc["traceEvents"]}
        assert "router.batch" in names
        assert any(n.startswith("POST /app/blog/post") for n in names)

    def test_merged_report_counts_all_spans(self):
        sp, clients = build_traced(2, "serial")
        before = sp.trace_report()["stats"]["traces_finished"]
        sp.handle_batch(cross_shard_batch(sp, clients))
        report = sp.trace_report()
        assert report["tracing"] is True
        # merged stats grew by the router root + one trace per request
        assert report["stats"]["traces_finished"] - before == 1 + len(USERS)
        assert "router.batch" in report["latencies"]
        assert any(name.startswith("POST /app/blog/post")
                   for name in report["latencies"])
        # both shards' request histograms merged: one count per post
        posts = [v["count"] for name, v in report["latencies"].items()
                 if name.startswith("POST /app/blog/post")]
        assert sum(posts) == len(USERS)
        assert "shards" not in report
        # the stitched doc counts every shard-side span it absorbed
        (batch,) = stitched_batches(sp)
        assert batch["n_spans"] > 1 + len(USERS)

    def test_single_shard_report_keeps_merged_shape(self):
        sp, clients = build_traced(1, "serial", users=["alice"])
        clients["alice"].post("/app/blog/post",
                              params={"title": "t", "body": "b"})
        report = sp.trace_report()
        assert report["tracing"] is True
        assert report["stats"]["traces_finished"] >= 1
        assert any(name.startswith("POST /app/blog/post")
                   for name in report["latencies"])
        assert set(report["histograms"]) == set(report["latencies"])

    def test_tracing_off_report(self):
        sp = ShardedProvider(n_shards=2, engine="serial", tracing=False)
        assert sp.trace_report() == {"tracing": False}

    def test_health_report_shape(self):
        sp, clients = build_traced(2, "serial")
        sp.handle_batch(cross_shard_batch(sp, clients))
        report = sp.health_report()
        assert report["state"] == "ok"
        assert [r["state"] for r in report["shards"]] == ["ok", "ok"]
        assert report["router"]["engine"] == "serial"


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="fork engine needs os.fork")


class TestDeterministicMerge:
    @needs_fork
    def test_serial_and_fork_stitch_identically(self):
        """The graft order is (shard, request-order) — the same
        deterministic merge as the M13 audit view — so the stitched
        shape is engine-independent even though the fork engine's
        children finish in racy order."""
        trees = {}
        for engine in ("serial", "fork"):
            sp, clients = build_traced(2, engine)
            try:
                sp.handle_batch(cross_shard_batch(sp, clients))
                (batch,) = stitched_batches(sp)
                trees[engine] = shape(batch["root"])
            finally:
                sp.shutdown()
        assert trees["serial"] == trees["fork"]


@needs_fork
class TestForkEngine:
    def test_child_spans_ship_back_over_the_pipe(self):
        sp, clients = build_traced(2, "fork")
        try:
            reqs = cross_shard_batch(sp, clients)
            resps = sp.handle_batch(reqs)
            assert all(r.status == 200 for r in resps)
            (batch,) = stitched_batches(sp)
            grafted = [c for c in batch["root"]["children"]
                       if "origin" in c["attrs"]]
            assert len(grafted) == len(reqs)
            assert batch["orphan_grafts"] == 0
            # the skeletons carry real child spans from the forked
            # process, not just bare roots
            assert all(c["children"] for c in grafted)
        finally:
            sp.shutdown()

    def test_overflow_budget_is_counted_not_silent(self, monkeypatch):
        """A forked shard that hits the per-trace span budget reports
        the loss: ``truncated`` rides the skeleton back through the
        pipe and ``spans_dropped`` survives the stats merge."""
        orig = Tracer.__init__

        def tiny(self, max_spans=3, fold_every=1):
            orig(self, max_spans=max_spans, fold_every=fold_every)

        monkeypatch.setattr(Tracer, "__init__", tiny)
        sp, clients = build_traced(2, "fork")  # forks inherit the cap
        try:
            sp.handle_batch(cross_shard_batch(sp, clients))
            (batch,) = stitched_batches(sp)
            assert batch["truncated"] > 0, "overflow lost silently"
            report = sp.trace_report()
            assert report["stats"]["spans_dropped"] > 0
        finally:
            sp.shutdown()


class TestAnalysisOnMergedReport:
    def test_tracecmd_finds_router_recorder(self):
        """The trace CLI reads the stitched trees from a merged
        sharded report (recorder nested under ``router``, M16) just
        like a flat single-provider report."""
        from repro.analysis.tracecmd import kept_traces, render_trace_report

        sp, clients = build_traced(2, "serial")
        sp.handle_batch(cross_shard_batch(sp, clients))
        report = sp.trace_report()
        assert "recorder" not in report  # merged shape: nested
        kept = kept_traces(report)
        assert any(t["root"]["name"] == "router.batch" for t in kept)
        doc = chrome_trace(kept)
        assert validate_chrome_trace(doc) is None
        assert "router.batch" in render_trace_report(report)
