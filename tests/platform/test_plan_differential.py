"""Differential property test: compiled request plans change nothing.

Two full deployments — identical except ``request_plans`` — are driven
through the same randomly generated interleaving of requests and
policy mutations.  The bar here is *stricter* than the pool/cache
differentials: because plans only replace pure recomputation (never a
spawn, a charge, or an audit record), the two audit streams must be
**byte-identical** — same categories, same verdicts, same subjects,
same detail strings, pids included — and every HTTP response must
match exactly.  Hypothesis shrinks any divergence to a minimal
witness.

A second class pins each plan-invalidation edge individually:
befriend/unfriend (authority epoch), app disable (cap-index epoch),
account deletion (cap-index epoch), upload/fork (registry epoch), and
a journal-replay restore (which rewires tag identity wholesale).
"""

import dataclasses
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.blog import blog
from repro.core import W5System
from repro.net import HttpRequest, HttpResponse
from repro.platform import ProviderConfig
from repro.resources.containers import KINDS

USERS = ("alice", "bob", "carol")
APPS = ("blog", "social")

#: The M14 mandated-pipeline fast paths and their opt-outs.
M14_FLAGS = ("lazy_audit", "compiled_transitions", "batched_charges",
             "verdict_slots")
M14_NAIVE = {flag: False for flag in M14_FLAGS}


def build_deployment(planned: bool) -> W5System:
    config = ProviderConfig(request_plans=planned)
    w5 = W5System(name="plans", config=config)
    for user in USERS:
        w5.add_user(user, apps=APPS)
    w5.befriend("alice", "bob")
    return w5


def blog_v2(ctx):
    """blog 2.0: the same app, with replies a reader can tell apart
    from 1.0's, so running the wrong version shows in the response."""
    result = blog(ctx)
    return result if isinstance(result, HttpResponse) else {"v2": result}


def apply_op(w5: W5System, op) -> tuple:
    """Run one request/mutation; return the exact outcome."""
    kind = op[0]
    if kind == "post":
        _, ui, i = op
        user = USERS[ui % len(USERS)]
        r = w5.client(user).get("/app/blog/post",
                                title=f"t{i}", body=f"b{i}")
    elif kind == "read":
        _, ui, vi, i = op
        author = USERS[ui % len(USERS)]
        viewer = USERS[vi % len(USERS)]
        r = w5.client(viewer).get("/app/blog/read",
                                  author=author, title=f"t{i}")
    elif kind == "list":
        _, ui, vi = op
        author = USERS[ui % len(USERS)]
        viewer = USERS[vi % len(USERS)]
        r = w5.client(viewer).get("/app/blog/list", author=author)
    elif kind == "anon":
        r = w5.anonymous_client().get("/app/blog/list", author="alice")
    elif kind == "missing":
        _, ui = op
        r = w5.client(USERS[ui % len(USERS)]).get("/app/nonesuch/run")
    elif kind == "toggle":
        _, ui, on = op
        user = USERS[ui % len(USERS)]
        path = "/policy/enable" if on else "/policy/disable"
        r = w5.client(user).post(path, params={"app": "blog"})
    elif kind == "befriend":
        _, ui, vi = op
        a, b = USERS[ui % len(USERS)], USERS[vi % len(USERS)]
        if a == b:
            return ("skip",)
        w5.befriend(a, b)
        return ("befriended",)
    elif kind == "unfriend":
        _, ui, vi = op
        a, b = USERS[ui % len(USERS)], USERS[vi % len(USERS)]
        if a == b:
            return ("skip",)
        w5.unfriend(a, b)
        return ("unfriended",)
    elif kind == "pin":
        # audited pins and the integrity policy never bump a plan
        # epoch: they force the generic fallback inside a planned plane
        _, ui = op
        w5.provider.pin_audited(USERS[ui % len(USERS)], "blog", "1.0")
        return ("pinned",)
    elif kind == "unpin":
        _, ui = op
        w5.provider.unpin_audited(USERS[ui % len(USERS)], "blog")
        return ("unpinned",)
    elif kind == "integrity":
        _, ui, on = op
        r = w5.client(USERS[ui % len(USERS)]).post(
            "/policy/integrity", params={"require_endorsed": on})
    elif kind == "upload":
        apps = w5.provider.apps
        if "2.0" in apps.versions("blog"):
            return ("skip",)
        w5.provider.register_app(dataclasses.replace(
            apps.get("blog"), version="2.0", handler=blog_v2))
        return ("uploaded",)
    elif kind == "endorse":
        w5.provider.endorse_module("blog")
        return ("endorsed",)
    else:
        return ("noop",)
    return (r.status, r.body)


def ops(*kinds: str):
    """Random op sequences; ``kinds`` narrows the mix (default: all)."""
    users = st.integers(0, 2)
    mix = {
        "post": st.tuples(st.just("post"), users, st.integers(0, 3)),
        "read": st.tuples(st.just("read"), users, users, st.integers(0, 3)),
        "list": st.tuples(st.just("list"), users, users),
        "anon": st.tuples(st.just("anon")),
        "missing": st.tuples(st.just("missing"), users),
        "toggle": st.tuples(st.just("toggle"), users, st.booleans()),
        "befriend": st.tuples(st.just("befriend"), users, users),
        "unfriend": st.tuples(st.just("unfriend"), users, users),
        "pin": st.tuples(st.just("pin"), users),
        "unpin": st.tuples(st.just("unpin"), users),
        "integrity": st.tuples(st.just("integrity"), users, st.booleans()),
        "upload": st.tuples(st.just("upload")),
        "endorse": st.tuples(st.just("endorse")),
    }
    chosen = [mix[k] for k in kinds] if kinds else list(mix.values())
    return st.lists(st.one_of(*chosen), max_size=25)


#: The ops that drive the generic fallback inside a planned plane:
#: account policy a plan cannot freeze, plus the requests it governs.
FALLBACK_OPS = ("post", "read", "list", "pin", "unpin", "integrity",
                "upload", "endorse")


def audit_bytes(w5: W5System) -> list:
    """The audit stream, byte-for-byte (sans the monotonic seq)."""
    return [(e.category, e.allowed, e.subject, e.detail)
            for e in w5.provider.kernel.audit]


class TestPlannedPlaneIsByteIdentical:
    @staticmethod
    def _assert_planes_agree(seed_ops) -> None:
        planned = build_deployment(planned=True)
        unplanned = build_deployment(planned=False)
        assert planned.provider.plans.enabled
        assert not unplanned.provider.plans.enabled
        assert audit_bytes(planned) == audit_bytes(unplanned)

        for op in seed_ops:
            out_p = apply_op(planned, op)
            out_u = apply_op(unplanned, op)
            assert out_p == out_u, f"response divergence on {op}"

        assert audit_bytes(planned) == audit_bytes(unplanned)

    @settings(max_examples=30, deadline=None)
    @given(ops())
    def test_identical_histories_identical_streams(self, seed_ops):
        self._assert_planes_agree(seed_ops)

    @settings(max_examples=100, deadline=None)
    @given(ops(*FALLBACK_OPS))
    def test_fallback_interleavings_identical(self, seed_ops):
        """Pins and integrity policy never bump a plan epoch; every
        request they govern must still match the reference plane."""
        self._assert_planes_agree(seed_ops)

    @settings(max_examples=15, deadline=None)
    @given(ops())
    def test_batch_entrypoint_matches_sequential(self, seed_ops):
        """handle_batch == N× handle_request, byte for byte."""
        batched = build_deployment(planned=True)
        sequential = build_deployment(planned=True)
        # mutations first, then a burst of reads through both doors
        for op in seed_ops:
            if op[0] in ("befriend", "unfriend", "toggle", "post", "pin",
                         "unpin", "integrity", "upload", "endorse"):
                apply_op(batched, op)
                apply_op(sequential, op)
        session_b = batched.provider.sessions.login("alice", "pw").token
        session_s = sequential.provider.sessions.login("alice", "pw").token

        def burst(session):
            return [HttpRequest(method="GET", path="/app/blog/list",
                                params={"author": "alice"},
                                cookies={"w5_session": session})
                    for _ in range(6)]

        responses_b = batched.provider.handle_batch(burst(session_b))
        responses_s = [sequential.provider.handle_request(r)
                       for r in burst(session_s)]
        assert [(r.status, r.body) for r in responses_b] \
            == [(r.status, r.body) for r in responses_s]
        assert audit_bytes(batched) == audit_bytes(sequential)


def build_m14(fast: bool) -> W5System:
    """A planned deployment with the M14 fast paths on or off.

    The quota and ring bound are deliberately tight so the interleaved
    streams genuinely exercise quota-exhaustion denials (batched
    charges must refuse at the same item with the same message) and
    audit ring eviction (lazy records must evict and count the same).
    """
    config = (ProviderConfig.fast() if fast
              else ProviderConfig.fast().replace(**M14_NAIVE))
    w5 = W5System(name="m14", config=config,
                  quotas={"db_rows_scanned": 6},
                  audit_max_events=64)
    for user in USERS:
        w5.add_user(user, apps=APPS)
    w5.befriend("alice", "bob")
    return w5


class TestM14FastPathsAreByteIdentical:
    """Lazy audit + compiled transitions + batched charges + verdict
    slots vs their ``ProviderConfig`` opt-outs: identical op streams
    must produce byte-identical audit streams (ring eviction and pids
    included), identical charge totals per kind, and identical denial
    counters.  The op mix is label-change heavy (every cross-user blog
    read taints a process and changes labels) and the tight
    ``db_rows_scanned`` quota makes denials fire as posts accumulate.
    """

    @settings(max_examples=30, deadline=None)
    @given(ops())
    def test_fast_vs_naive_pipeline(self, seed_ops):
        fast = build_m14(fast=True)
        naive = build_m14(fast=False)
        for flag in M14_FLAGS:
            assert getattr(fast.provider.config, flag)
            assert not getattr(naive.provider.config, flag)

        for op in seed_ops:
            out_f = apply_op(fast, op)
            out_n = apply_op(naive, op)
            assert out_f == out_n, f"response divergence on {op}"

        audit_f = fast.provider.kernel.audit
        audit_n = naive.provider.kernel.audit
        assert audit_bytes(fast) == audit_bytes(naive)
        assert audit_f.dropped == audit_n.dropped
        res_f = fast.provider.kernel.resources
        res_n = naive.provider.kernel.resources
        for kind in KINDS:
            assert res_f.total(kind) == res_n.total(kind), kind
        assert res_f.denials == res_n.denials
        # the O(1) counters agree with each other across both modes
        for cat in ("spawn", "exit", "label_change", "db_query",
                    "file_read", "export", "resource"):
            for allowed in (None, True, False):
                assert (audit_f.count(category=cat, allowed=allowed)
                        == audit_n.count(category=cat, allowed=allowed)), \
                    (cat, allowed)

    def test_transition_cache_populates_and_survives_flush(self):
        w5 = build_m14(fast=True)
        w5.client("alice").get("/app/blog/post", title="t", body="b")
        r = w5.client("bob").get("/app/blog/read", author="alice",
                                 title="t")
        assert r.status == 200
        kernel = w5.provider.kernel
        assert kernel._transitions  # the tainted read compiled its transition
        kernel.flow_cache.invalidate_all(reason="test")
        r = w5.client("bob").get("/app/blog/read", author="alice",
                                 title="t")
        assert r.status == 200
        # the generation guard flushed and re-primed the cache
        assert kernel._transitions_gen == kernel.flow_cache.generation
        assert kernel._transitions


class TestPlanInvalidation:
    """Each policy edge that must retire a compiled plan, pinned."""

    def _warm(self, w5, viewer="bob", author="alice"):
        r = w5.client(viewer).get("/app/blog/list", author=author)
        assert r.ok
        return r

    def test_befriend_unfriend_rotates_authority(self):
        w5 = build_deployment(planned=True)
        w5.client("alice").get("/app/blog/post", title="t", body="b")
        assert self._warm(w5).status == 200
        plan = w5.provider.plans.lookup("blog", "bob")
        w5.unfriend("alice", "bob")
        assert not plan.is_current(w5.provider)
        r = w5.client("bob").get("/app/blog/read",
                                 author="alice", title="t")
        assert r.status == 403  # authority really shrank
        w5.befriend("alice", "bob")
        r = w5.client("bob").get("/app/blog/read",
                                 author="alice", title="t")
        assert r.status == 200  # and grew back

    def test_disable_app_retires_plan(self):
        w5 = build_deployment(planned=True)
        w5.client("alice").get("/app/blog/post", title="t", body="b")
        assert w5.client("alice").get("/app/blog/read", author="alice",
                                      title="t").status == 200
        plan = w5.provider.plans.lookup("blog", "alice")
        w5.provider.disable_app("alice", "blog")
        assert not plan.is_current(w5.provider)
        r = w5.client("alice").get("/app/blog/read", author="alice",
                                   title="t")
        assert r.status == 403  # relaunch without alice's caps

    def test_delete_account_retires_plan(self):
        w5 = build_deployment(planned=True)
        self._warm(w5, viewer="carol", author="carol")
        plan = w5.provider.plans.lookup("blog", "carol")
        assert plan is not None
        w5.provider.delete_account("carol")
        assert not plan.is_current(w5.provider)

    def test_upload_retires_plan_via_registry_epoch(self):
        w5 = build_deployment(planned=True)
        self._warm(w5)
        plan = w5.provider.plans.lookup("blog", "bob")
        w5.provider.fork_app("blog", "new-dev")
        assert not plan.is_current(w5.provider)

    def test_account_policy_bypasses_live(self):
        """require_endorsed never bumps an epoch — checked per request."""
        w5 = build_deployment(planned=True)
        self._warm(w5)
        assert w5.provider.plans.lookup("blog", "bob") is not None
        w5.provider.set_integrity_policy("bob", require_endorsed=True)
        assert w5.provider.plans.lookup("blog", "bob") is None
        stats = w5.provider.plans.stats()
        assert stats["bypasses"] >= 1
        # unendorsed app + endorsement requirement -> the generic
        # path's refusal, not a stale plan's allow
        r = w5.client("bob").get("/app/blog/list", author="alice")
        assert r.status == 403

    def test_batch_rechecks_account_policy_live(self):
        """A shared batch plan outlives an integrity-policy edit (no
        epoch moves), so handle_batch re-checks the account per
        request: the reads behind the edit take the generic refusal."""
        batched = build_deployment(planned=True)
        sequential = build_deployment(planned=True)

        def burst(w5):
            token = w5.provider.sessions.login("bob", "pw").token
            cookies = {"w5_session": token}
            read = HttpRequest(method="GET", path="/app/blog/list",
                               params={"author": "alice"}, cookies=cookies)
            edit = HttpRequest(method="POST", path="/policy/integrity",
                               params={"require_endorsed": True},
                               cookies=cookies)
            return [read, read, edit, read]

        responses_b = batched.provider.handle_batch(burst(batched))
        responses_s = [sequential.provider.handle_request(r)
                       for r in burst(sequential)]
        assert [r.status for r in responses_b] == [200, 200, 200, 403]
        assert [(r.status, r.body) for r in responses_b] \
            == [(r.status, r.body) for r in responses_s]
        assert audit_bytes(batched) == audit_bytes(sequential)

    def test_journal_replay_restore_starts_plans_cold(self):
        import copy

        from repro.apps import STANDARD_CATALOG
        from repro.platform import recover_provider, set_password

        w5 = build_deployment(planned=True)
        base = copy.deepcopy(w5.provider._durability.base)
        w5.client("alice").get("/app/blog/post", title="t", body="b")
        self._warm(w5)
        journal = bytes(w5.provider._durability.journal.raw_bytes())
        recovered, report = recover_provider(
            base, journal, STANDARD_CATALOG,
            config=ProviderConfig.fast())
        assert recovered.config.request_plans
        assert recovered.plans.stats()["entries"] == 0
        # a fresh login drives the planned path against restored state
        set_password(recovered, "alice", "pw")
        session = recovered.sessions.login("alice", "pw").token
        req = HttpRequest(method="GET", path="/app/blog/list",
                          params={"author": "alice"},
                          cookies={"w5_session": session})
        r = recovered.handle_request(req)
        assert r.status == 200
        assert "t" in str(r.body)
