"""Unit tests for the M13 sharded request plane.

The differential proofs (byte-identity vs the single-threaded plane)
live in ``test_shard_differential.py``; this file pins the mechanisms:
the consistent-hash ring, request routing, the merged audit view, and
the engines' control-plane surface.
"""

import os
import signal

import pytest

from repro.apps import install_standard_apps
from repro.core import W5System
from repro.net import SESSION_COOKIE, ExternalClient
from repro.net.http import HttpRequest
from repro.platform import ProviderConfig, ShardMap, ShardedProvider

USERS = ["alice", "bob", "carol", "dave", "erin", "frank"]


def build_sharded(n_shards, engine=None, users=USERS, apps=("blog",)):
    sp = ShardedProvider(n_shards=n_shards, engine=engine)
    install_standard_apps(sp)
    clients = {}
    for u in users:
        c = ExternalClient(u, sp.transport())
        c.post("/signup", params={"username": u, "password": "pw"})
        c.login("pw")
        for app in apps:
            c.post("/policy/enable", params={"app": app})
        clients[u] = c
    return sp, clients


class TestShardMap:
    def test_deterministic_across_instances(self):
        a, b = ShardMap(4), ShardMap(4)
        for u in USERS:
            assert a.shard_of_user(u) == b.shard_of_user(u)

    def test_single_shard_maps_everything_to_zero(self):
        m = ShardMap(1)
        assert {m.shard_of_user(u) for u in USERS} == {0}

    def test_ring_covers_every_shard(self):
        m = ShardMap(4)
        keys = [f"user{i}" for i in range(400)]
        counts = m.distribution(keys)
        assert len(counts) == 4 and all(c > 0 for c in counts)

    def test_distribution_is_roughly_balanced(self):
        m = ShardMap(4, replicas=64)
        counts = m.distribution([f"user{i}" for i in range(4000)])
        assert max(counts) < 3 * min(counts)

    def test_resize_moves_a_minority_of_keys(self):
        # the consistent-hashing property: going 4 -> 5 shards moves
        # roughly 1/5 of keys, nothing like the ~4/5 of `hash % N`
        keys = [f"user{i}" for i in range(2000)]
        m4, m5 = ShardMap(4), ShardMap(5)
        moved = sum(m4.shard_of(k) != m5.shard_of(k) for k in keys)
        assert moved < len(keys) // 2

    def test_pair_placement_follows_tag_owner(self):
        from repro.labels import Label
        sp, _ = build_sharded(3)
        for u in USERS:
            acct = sp.account(u)
            slabel = Label([acct.data_tag])
            expected = sp.map.shard_of_user(u)
            assert sp.map.shard_of_pair(slabel, Label.EMPTY) == expected

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(0)


class TestRouting:
    def test_signup_and_login_route_by_username_param(self):
        sp, _ = build_sharded(3)
        for u in USERS:
            req = HttpRequest("POST", "/signup",
                              params={"username": u, "password": "x"})
            assert sp.shard_for(req) == sp.map.shard_of_user(u)

    def test_session_token_routes_to_home_shard(self):
        sp, clients = build_sharded(3)
        for u, c in clients.items():
            req = HttpRequest("GET", "/app/blog/list",
                              cookies=dict(c.cookies))
            assert sp.shard_for(req) == sp.map.shard_of_user(u)

    def test_logout_drops_token_mapping(self):
        sp, clients = build_sharded(3)
        token = clients["alice"].cookies[SESSION_COOKIE]
        assert token in sp._token_shard
        clients["alice"].post("/logout")
        assert token not in sp._token_shard

    def test_anonymous_request_with_user_param_routes_home(self):
        sp, _ = build_sharded(3)
        req = HttpRequest("GET", "/app/blog/read",
                          params={"author": "carol", "title": "t"})
        assert sp.shard_for(req) == sp.map.shard_of_user("carol")

    def test_data_lands_on_the_routed_shard(self):
        sp, clients = build_sharded(3)
        for u, c in clients.items():
            assert c.get("/app/blog/post", title=f"t-{u}", body="b").ok
        report = sp.placement_report()
        assert report["partitions"] >= len(USERS)
        assert report["misplaced"] == 0

    def test_every_shard_serves_the_catalog(self):
        sp, _ = build_sharded(3)
        names = [sorted(m.name for m in shard.apps) for shard in sp.shards]
        assert names[0] == names[1] == names[2]
        assert "blog" in names[0]

    def test_one_shard_short_circuits(self):
        sp, clients = build_sharded(1)
        assert sp.engine_name == "serial"
        assert sp._token_shard == {}  # no bookkeeping at 1 shard
        assert clients["alice"].get("/app/blog/list").ok


class TestBatchFanOut:
    def test_batch_responses_in_request_order(self):
        sp, clients = build_sharded(3)
        for u, c in clients.items():
            assert c.get("/app/blog/post", title=f"t-{u}", body="b").ok
        reqs = [HttpRequest("GET", "/app/blog/read",
                            params={"title": f"t-{u}"},
                            cookies=dict(clients[u].cookies))
                for u in USERS for _ in range(3)]
        resps = sp.handle_batch(reqs)
        assert len(resps) == len(reqs)
        for req, resp in zip(reqs, resps):
            assert resp.ok
            assert resp.body["title"] == req.params["title"]

    def test_batch_spans_multiple_shards(self):
        sp, clients = build_sharded(3)
        before = list(sp.routed)
        reqs = [HttpRequest("GET", "/app/blog/list",
                            cookies=dict(clients[u].cookies))
                for u in USERS]
        sp.handle_batch(reqs)
        grew = [a - b for a, b in zip(sp.routed, before)]
        assert sum(grew) == len(USERS)
        assert sum(1 for g in grew if g) >= 2  # genuinely fanned out

    def test_batch_matches_sequential_dispatch(self):
        sp_a, clients_a = build_sharded(3)
        sp_b, clients_b = build_sharded(3)
        for u in USERS:
            assert clients_a[u].get("/app/blog/post", title=f"t-{u}",
                                    body="b").ok
            assert clients_b[u].get("/app/blog/post", title=f"t-{u}",
                                    body="b").ok
        reqs_a = [HttpRequest("GET", "/app/blog/read",
                              params={"title": f"t-{u}"},
                              cookies=dict(clients_a[u].cookies))
                  for u in USERS]
        reqs_b = [HttpRequest("GET", "/app/blog/read",
                              params={"title": f"t-{u}"},
                              cookies=dict(clients_b[u].cookies))
                  for u in USERS]
        batched = sp_a.handle_batch(reqs_a)
        sequential = [sp_b.handle_request(r) for r in reqs_b]
        assert [(r.status, r.body) for r in batched] \
            == [(r.status, r.body) for r in sequential]


class TestMergedAudit:
    def test_merge_orders_by_shard_then_seq(self):
        sp, clients = build_sharded(3)
        for u, c in clients.items():
            assert c.get("/app/blog/post", title=f"t-{u}", body="b").ok
        merged = list(sp.kernel.audit)
        streams = sp.kernel.audit.per_shard()
        assert merged == [e for stream in streams for e in stream]
        for stream in streams:
            assert [e.seq for e in stream] == sorted(e.seq for e in stream)

    def test_query_api_matches_per_shard_totals(self):
        sp, clients = build_sharded(3)
        for c in clients.values():
            assert c.get("/app/blog/post", title="t", body="b").ok
        view = sp.kernel.audit
        assert len(view) == sum(len(s.kernel.audit) for s in sp.shards)
        assert view.count("spawn") == sum(
            s.kernel.audit.count("spawn") for s in sp.shards)
        assert len(view.denials()) == sum(
            len(s.kernel.audit.denials()) for s in sp.shards)
        assert view.last() is not None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_merge_identical_across_engines(self):
        streams = {}
        for engine in ("serial", "fork"):
            sp, clients = build_sharded(3, engine=engine)
            for u, c in clients.items():
                assert c.get("/app/blog/post", title=f"t-{u}", body="b").ok
            streams[engine] = [(e.category, e.allowed, e.subject, e.detail)
                               for e in sp.kernel.audit]
            sp.shutdown()
        assert streams["serial"] == streams["fork"]


class TestControlPlane:
    def test_user_verbs_land_on_home_shard(self):
        sp, _ = build_sharded(3)
        sp.set_profile("alice", music="jazz")
        home = sp.shards[sp.map.shard_of_user("alice")]
        assert home.account("alice").profile["music"] == "jazz"
        others = [s for i, s in enumerate(sp.shards)
                  if i != sp.map.shard_of_user("alice")]
        for other in others:
            assert "alice" not in other._accounts

    def test_declass_view_routes_grant_lookup(self):
        sp, _ = build_sharded(3)
        sp.grant_builtin_declassifier("bob", "friends-only",
                                      {"friends": ["alice"]})
        grant = sp.declass.grant_for("bob", "friends-only")
        assert grant is not None
        assert "alice" in grant.declassifier.config["friends"]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            ShardedProvider(n_shards=2, engine="carrier-pigeon")

    def test_w5system_builds_sharded_provider(self):
        w5 = W5System(config=ProviderConfig(shards=3))
        assert isinstance(w5.provider, ShardedProvider)
        assert w5.provider.n_shards == 3
        a = w5.add_user("alice", apps=["blog"])
        assert a.get("/app/blog/post", title="t", body="b").ok
        assert w5.audit().count("spawn") > 0
        w5.provider.shutdown()

    def test_sharded_preset_round_trips_describe(self):
        cfg = ProviderConfig(shards=4, shard_engine="fork")
        desc = cfg.describe()
        assert desc["shards"] == 4
        assert desc["shard_engine"] == "fork"
        assert desc["request_plans"] is True


class TestEngineChoice:
    def test_serial_is_the_default_at_every_shard_count(self):
        for n in (1, 2, 3):
            assert ShardedProvider(n_shards=n).engine_name == "serial"
        w5 = W5System(config=ProviderConfig(shards=3))
        assert w5.provider.engine_name == "serial"

    def test_two_engines(self):
        from repro.platform.shards import _ENGINES
        assert sorted(_ENGINES) == ["fork", "serial"]
        with pytest.raises(ValueError):
            ShardedProvider(n_shards=2, engine="thread")


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="fork engine needs os.fork")


def _list_requests(clients):
    return [HttpRequest("GET", "/app/blog/list", params={"author": u},
                        cookies=dict(c.cookies))
            for u, c in clients.items()]


@needs_fork
class TestForkEngine:
    def test_placement_report_reads_the_children(self):
        serial, c_serial = build_sharded(2, engine="serial")
        forked, c_forked = build_sharded(2, engine="fork")
        try:
            for sp, clients in ((serial, c_serial), (forked, c_forked)):
                sp.handle_batch([
                    HttpRequest("GET", "/app/blog/post",
                                params={"title": f"t-{u}", "body": "b"},
                                cookies=dict(c.cookies))
                    for u, c in clients.items()])
            report = forked.placement_report()
            assert report == serial.placement_report()
            assert report["partitions"] > 0
            assert report["misplaced"] == 0
        finally:
            forked.shutdown()

    def test_one_shard_batch_runs_in_the_child(self):
        sp, clients = build_sharded(1, engine="fork", users=["alice"])
        try:
            assert clients["alice"].get("/app/blog/post", title="t",
                                        body="b").ok
            (resp,) = sp.handle_batch(_list_requests(clients))
            assert resp.status == 200
            assert resp.body == clients["alice"].get(
                "/app/blog/list", author="alice").body
            assert "t" in str(resp.body)
        finally:
            sp.shutdown()

    def test_dead_shard_reads_down_and_live_shard_still_answers(self):
        sp, clients = build_sharded(2, engine="fork")
        try:
            before = sp.handle_batch(_list_requests(clients))
            assert all(r.status == 200 for r in before)
            dead = sp._engine._pids[1]
            os.kill(dead, signal.SIGKILL)
            os.waitpid(dead, 0)
            report = sp.health_report()
            assert report["state"] == "down"
            assert report["shards"][1]["state"] == "down"
            assert report["shards"][1]["reasons"]
            assert report["shards"][0]["state"] == "ok"
            live = next(u for u in USERS if sp.shard_of_user(u) == 0)
            again = clients[live].get("/app/blog/list", author=live)
            expected = before[list(clients).index(live)]
            assert (again.status, again.body) \
                == (expected.status, expected.body)
        finally:
            sp.shutdown()

    def test_dead_shard_mid_batch_leaves_no_stale_reply(self):
        """A batch that hits a dead child answers 503 in the dead
        shard's slots and every live shard's own reply in the rest,
        and drains every live pipe, so the next call to a live shard
        reads its own reply, not the batch's leftover one."""
        users = [f"user{i}" for i in range(12)]
        sp, clients = build_sharded(4, engine="fork", users=users)
        try:
            before = sp.handle_batch(_list_requests(clients))
            assert all(r.status == 200 for r in before)
            dead = sp._engine._pids[2]
            os.kill(dead, signal.SIGKILL)
            os.waitpid(dead, 0)
            after = sp.handle_batch(_list_requests(clients))
            on_dead = [u for u in users if sp.shard_of_user(u) == 2]
            assert on_dead
            for u, expected, got in zip(users, before, after):
                if u in on_dead:
                    assert (got.status, got.body) \
                        == (503, {"error": "shard unavailable"})
                else:
                    assert (got.status, got.body) \
                        == (expected.status, expected.body)
            # a single request for a dead shard's user fails closed too
            solo = clients[on_dead[0]].get("/app/blog/list",
                                           author=on_dead[0])
            assert (solo.status, solo.body) \
                == (503, {"error": "shard unavailable"})
            live = next(u for u in users if sp.shard_of_user(u) == 0)
            again = clients[live].get("/app/blog/list", author=live)
            expected = before[users.index(live)]
            assert (again.status, again.body) \
                == (expected.status, expected.body)
            # the broken pipe is closed: later calls fail at once
            with pytest.raises(OSError):
                sp._engine.call(2, "health_report")
            assert sp.health_report()["shards"][2]["state"] == "down"
        finally:
            sp.shutdown()
