"""Differential proofs for the sharded request plane (M13).

Four claims, in decreasing order of strictness:

1. **Concurrency changes nothing.**  At every shard count, the fork
   engine (one child process per shard, concurrent) produces responses
   and a merged ``(shard, seq)`` audit stream **byte-identical** to the
   serial engine (in-line, the deterministic schedule) on the same
   operation history.  Shards share no mutable state, so this is the
   structural linearizability claim, and hypothesis shrinks any
   scheduling-dependent divergence to a minimal witness.

2. **Sharding off is the classic plane.**  A 1-shard
   ``ShardedProvider`` is byte-identical — responses *and* audit
   stream, pids included — to a plain ``ProviderConfig.fast()``
   provider on the same history.

3. **Shard-local execution is the baseline, relabeled.**  At N > 1,
   a workload where every request touches its own user's data
   produces byte-identical responses to the unsharded baseline, and
   each request's audit slice matches the baseline's slice exactly
   once shard-local identifiers (pids, tag ids, row ids) are
   normalized — those are minted per shard, so their absolute values
   are the *only* legitimate difference.

4. **Each shard's journal replays.**  After a random history, every
   shard's write-ahead journal (the M10 journal is the per-shard log)
   replays over its base checkpoint to a canonical snapshot
   byte-identical to the live shard's.
"""

import copy
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import STANDARD_CATALOG, install_standard_apps
from repro.net import ExternalClient
from repro.platform import (Provider, ProviderConfig, ShardedProvider,
                            recover_provider, snapshot_provider)

USERS = ("alice", "bob", "carol")

ALL_FRIENDS = {u: [v for v in USERS if v != u] for u in USERS}


def build_sharded(n_shards, engine=None):
    sp = ShardedProvider(name="prod", n_shards=n_shards, engine=engine)
    install_standard_apps(sp)
    return sp, _populate(sp)


def build_unsharded():
    p = Provider(name="prod", config=ProviderConfig.fast())
    install_standard_apps(p)
    return p, _populate(p)


def _populate(provider_like):
    clients = {}
    for u in USERS:
        c = ExternalClient(u, provider_like.transport())
        c.post("/signup", params={"username": u, "password": "pw"})
        c.login("pw")
        c.post("/policy/enable", params={"app": "blog"})
        provider_like.grant_builtin_declassifier(
            u, "friends-only", {"friends": ALL_FRIENDS[u]})
        clients[u] = c
    return clients


def apply_op(provider_like, clients, op) -> tuple:
    """Run one request/mutation; return the exact outcome."""
    kind = op[0]
    if kind == "post":
        _, ui, i = op
        user = USERS[ui % len(USERS)]
        r = clients[user].get("/app/blog/post", title=f"t{i}", body=f"b{i}")
    elif kind == "read":
        _, ui, vi, i = op
        author = USERS[ui % len(USERS)]
        viewer = USERS[vi % len(USERS)]
        r = clients[viewer].get("/app/blog/read", author=author,
                                title=f"t{i}")
    elif kind == "list":
        _, ui, vi = op
        author = USERS[ui % len(USERS)]
        viewer = USERS[vi % len(USERS)]
        r = clients[viewer].get("/app/blog/list", author=author)
    elif kind == "missing":
        _, ui = op
        r = clients[USERS[ui % len(USERS)]].get("/app/nonesuch/run")
    elif kind == "toggle":
        _, ui, on = op
        user = USERS[ui % len(USERS)]
        path = "/policy/enable" if on else "/policy/disable"
        r = clients[user].post(path, params={"app": "blog"})
    elif kind == "unfriend":
        _, ui, vi = op
        a, b = USERS[ui % len(USERS)], USERS[vi % len(USERS)]
        if a == b:
            return ("skip",)
        provider_like.update_declassifier_config(
            a, "friends-only", friends=set(ALL_FRIENDS[a]) - {b})
        return ("unfriended",)
    elif kind == "refriend":
        _, ui = op
        a = USERS[ui % len(USERS)]
        provider_like.update_declassifier_config(
            a, "friends-only", friends=set(ALL_FRIENDS[a]))
        return ("refriended",)
    else:
        return ("noop",)
    return (r.status, r.body)


def ops(local_only=False):
    """Random histories; ``local_only`` restricts reads to the author's
    own data (the claim-3 workload: no cross-user flows, so responses
    are topology-independent)."""
    post = st.tuples(st.just("post"), st.integers(0, 2), st.integers(0, 3))
    if local_only:
        read = st.tuples(st.just("read"), st.shared(st.integers(0, 2),
                                                    key="u"),
                         st.shared(st.integers(0, 2), key="u"),
                         st.integers(0, 3))
        listing = st.tuples(st.just("list"), st.shared(st.integers(0, 2),
                                                       key="u2"),
                            st.shared(st.integers(0, 2), key="u2"))
        pool = [post, read, listing,
                st.tuples(st.just("missing"), st.integers(0, 2))]
    else:
        read = st.tuples(st.just("read"), st.integers(0, 2),
                         st.integers(0, 2), st.integers(0, 3))
        listing = st.tuples(st.just("list"), st.integers(0, 2),
                            st.integers(0, 2))
        pool = [post, read, listing,
                st.tuples(st.just("missing"), st.integers(0, 2)),
                st.tuples(st.just("toggle"), st.integers(0, 2),
                          st.booleans()),
                st.tuples(st.just("unfriend"), st.integers(0, 2),
                          st.integers(0, 2)),
                st.tuples(st.just("refriend"), st.integers(0, 2))]
    return st.lists(st.one_of(*pool), max_size=20)


def audit_bytes(provider_like) -> list:
    """The (merged) audit stream, byte-for-byte (sans monotonic seq)."""
    return [(e.category, e.allowed, e.subject, e.detail)
            for e in provider_like.kernel.audit]


#: Shard-locally minted identifiers: process ids, tag ids, and row
#: ids.  These are the only values allowed to differ between a shard
#: and the unsharded baseline on the same shard-local request.
_PID_RE = re.compile(r"pid=\d+")
_TAG_ID_RE = re.compile(r"(?<=[{,])\d+:")
_ROW_ID_RE = re.compile(r"#\d+\b")


def normalized(events) -> list:
    out = []
    for e in events:
        if e.category == "db_query" and e.detail.startswith("create table"):
            # first-touch DDL happens once per (shard, table) rather
            # than once per table — the one event whose *presence*, not
            # just its ids, is topology-dependent
            continue
        detail = _PID_RE.sub("pid=?", e.detail)
        detail = _TAG_ID_RE.sub("?:", detail)
        if e.category == "db_query":
            # row ids come from a per-table counter, minted per shard
            detail = _ROW_ID_RE.sub("#?", detail)
        out.append((e.category, e.allowed, e.subject, detail))
    return out


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestConcurrencyIsInvisible:
    """Claim 1: fork engine == serial engine, byte for byte."""

    @settings(max_examples=10, deadline=None)
    @given(ops())
    def test_fork_matches_serial(self, seed_ops):
        """At every shard count, responses and merged audit."""
        for n in (1, 2, 3):
            serial, c_serial = build_sharded(n, engine="serial")
            forked, c_forked = build_sharded(n, engine="fork")
            try:
                for op in seed_ops:
                    out_s = apply_op(serial, c_serial, op)
                    out_f = apply_op(forked, c_forked, op)
                    assert out_s == out_f, \
                        f"response divergence at {n} shards on {op}"
                assert audit_bytes(serial) == audit_bytes(forked), \
                    f"merged audit divergence at {n} shards"
            finally:
                forked.shutdown()

    @settings(max_examples=8, deadline=None)
    @given(ops())
    def test_batched_fan_out_matches_sequential(self, seed_ops):
        """A burst through handle_batch (concurrent across shards) ==
        the same burst request-by-request, responses and audit."""
        from repro.net.http import HttpRequest
        batched, c_batched = build_sharded(3, engine="fork")
        sequential, c_sequential = build_sharded(3, engine="serial")
        try:
            for op in seed_ops:
                if op[0] in ("post", "toggle", "unfriend", "refriend"):
                    apply_op(batched, c_batched, op)
                    apply_op(sequential, c_sequential, op)

            def burst(clients):
                return [HttpRequest(method="GET", path="/app/blog/list",
                                    params={"author": u},
                                    cookies=dict(clients[u].cookies))
                        for u in USERS for _ in range(2)]

            responses_b = batched.handle_batch(burst(c_batched))
            responses_s = [sequential.handle_request(r)
                           for r in burst(c_sequential)]
            assert [(r.status, r.body) for r in responses_b] \
                == [(r.status, r.body) for r in responses_s]
            assert audit_bytes(batched) == audit_bytes(sequential)
        finally:
            batched.shutdown()


class TestShardingOffIsTheClassicPlane:
    """Claim 2: 1-shard ShardedProvider == plain fast() Provider."""

    @settings(max_examples=12, deadline=None)
    @given(ops())
    def test_one_shard_is_byte_identical_to_unsharded(self, seed_ops):
        sharded, c_sharded = build_sharded(1)
        plain, c_plain = build_unsharded()
        assert audit_bytes(sharded) == audit_bytes(plain)
        for op in seed_ops:
            out_s = apply_op(sharded, c_sharded, op)
            out_p = apply_op(plain, c_plain, op)
            assert out_s == out_p, f"response divergence on {op}"
        # strict equality: same categories, verdicts, subjects and
        # detail strings — pids and tag ids included
        assert audit_bytes(sharded) == audit_bytes(plain)


class TestShardLocalIsTheBaselineRelabeled:
    """Claim 3: at N > 1, shard-local requests reproduce the baseline's
    responses exactly and its audit slices modulo shard-minted ids."""

    @settings(max_examples=10, deadline=None)
    @given(ops(local_only=True))
    def test_responses_and_audit_slices_match_baseline(self, seed_ops):
        sharded, c_sharded = build_sharded(3, engine="serial")
        plain, c_plain = build_unsharded()
        for op in seed_ops:
            shard_before = [len(s.kernel.audit) for s in sharded.shards]
            plain_before = len(plain.kernel.audit)
            out_s = apply_op(sharded, c_sharded, op)
            out_p = apply_op(plain, c_plain, op)
            assert out_s == out_p, f"response divergence on {op}"
            slice_s = []
            for k, shard in enumerate(sharded.shards):
                slice_s.extend(list(shard.kernel.audit)[shard_before[k]:])
            slice_p = list(plain.kernel.audit)[plain_before:]
            assert normalized(slice_s) == normalized(slice_p), \
                f"audit slice divergence on {op}"


def canon(state) -> str:
    """Canonical snapshot bytes (same helper as the M10 replay suite)."""
    return json.dumps(
        state, sort_keys=True, separators=(",", ":"),
        default=lambda o: {"__bytes__": o.hex()}
        if isinstance(o, (bytes, bytearray)) else repr(o))


class TestPerShardJournalReplay:
    """Claim 4: every shard recovers byte-identically from its own
    write-ahead journal."""

    @settings(max_examples=8, deadline=None)
    @given(ops())
    def test_every_shard_replays_to_live_state(self, seed_ops):
        sharded, clients = build_sharded(3, engine="serial")
        for op in seed_ops:
            apply_op(sharded, clients, op)
        for shard in sharded.shards:
            base = copy.deepcopy(shard._durability.base)
            journal = bytes(shard._durability.journal.raw_bytes())
            recovered, report = recover_provider(
                base, journal, STANDARD_CATALOG, config=shard.config)
            assert report["truncated_bytes"] == 0
            assert canon(snapshot_provider(recovered)) \
                == canon(snapshot_provider(shard))

    def test_recovered_shard_serves_its_users(self):
        sharded, clients = build_sharded(3, engine="serial")
        assert clients["alice"].get("/app/blog/post", title="t0",
                                    body="b0").ok
        home = sharded.shards[sharded.map.shard_of_user("alice")]
        base = copy.deepcopy(home._durability.base)
        journal = bytes(home._durability.journal.raw_bytes())
        recovered, __ = recover_provider(base, journal, STANDARD_CATALOG,
                                         config=home.config)
        from repro.net.http import HttpRequest
        from repro.platform import set_password
        set_password(recovered, "alice", "pw")
        session = recovered.sessions.login("alice", "pw").token
        r = recovered.handle_request(HttpRequest(
            method="GET", path="/app/blog/read",
            params={"title": "t0"}, cookies={"w5_session": session}))
        assert r.status == 200 and r.body["title"] == "t0"
