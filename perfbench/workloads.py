"""The three deployments and their closed-loop drivers.

Every deployment runs ``ProviderConfig.fast()`` unchanged and is
driven only through ``Provider.handle_request``,
``ShardedProvider.handle_batch`` and ``FederationFabric.sync_all``
(plus the user policy verbs the workload names).  One client sends its
next request only after the previous one returned: the front door is a
synchronous in-process call with no queue of its own, so an open loop
would measure the generator's queue instead of W5.
"""

from __future__ import annotations

import os
import resource
from array import array
from collections import Counter
from time import perf_counter, perf_counter_ns, process_time_ns
from typing import Any, Callable, Iterator, Optional

from repro.apps import STANDARD_CATALOG
from repro.federation import FederationFabric
from repro.federation.peering import converged
from repro.net import SESSION_COOKIE
from repro.net.http import HttpRequest
from repro.platform import (Provider, ProviderConfig, ShardMap,
                            ShardedProvider)
from repro.platform.persist import snapshot_provider
from repro.resources import ResourceManager

from check import Checker
from layers import (FleetChannel, LayerTracer, add_counters,
                    federation_counters, provider_counters, wrap_federation,
                    wrap_fleet, wrap_provider)
from world import FederatedModel, Op, World, read_ops

PASSWORD = "pw"
#: Retained audit history per provider (a deployment setting, not a
#: performance switch: the log keeps counting what it drops).
AUDIT_RING = 50_000
CONFIG = ProviderConfig.fast()


def _request(path: str, params: dict, token: str) -> HttpRequest:
    return HttpRequest(method="GET", path=path, params=dict(params),
                       cookies={SESSION_COOKIE: token})


def _login(user: str) -> HttpRequest:
    return HttpRequest(method="POST", path="/login",
                       params={"username": user, "password": PASSWORD})


def _expect_ok(responses: list, what: str) -> None:
    bad = [r for r in responses if r.status != 200]
    if bad:
        raise RuntimeError(f"set-up {what} failed: {bad[0].status} "
                           f"{bad[0].body!r}")


def _modules(tracer: Optional[LayerTracer]) -> list:
    return [tracer.wrap_module(m) if tracer else m for m in STANDARD_CATALOG]


def _seed_requests(world: World, tokens: dict[str, str]
                   ) -> tuple[list, list]:
    """Every user's seed posts, and a befriend edge per friend (the
    social app's own copy of the friend graph, read by feeds)."""
    posts = [_request("/app/blog/post",
                      {"title": t, "body": world.bodies[(u, t)]}, tokens[u])
             for u in world.users for t in world.titles[u]]
    edges = [_request("/app/social/befriend", {"friend": f}, tokens[u])
             for u in world.users for f in world.sorted_friends(u)]
    return posts, edges


def _grant_policies(p: Any, world: World) -> None:
    for u in world.users:
        p.enable_app(u, "blog")
        p.enable_app(u, "social")
        p.grant_builtin_declassifier(
            u, "friends-only", {"friends": world.sorted_friends(u)})


# ----------------------------------------------------------------------
# process accounting (the benchmark process and its shard children)
# ----------------------------------------------------------------------

def child_pids() -> list[int]:
    pid = os.getpid()
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(x) for x in f.read().split()]
    except OSError:
        return []


def _proc_cpu_ns(pid: int) -> int:
    """On-CPU time of a (single-threaded) child, in ns."""
    try:
        with open(f"/proc/{pid}/schedstat") as f:
            return int(f.read().split()[0])
    except OSError:
        return 0


def _proc_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_ns(pids: list[int]) -> int:
    """CPU time of this process and of the child processes ``pids``."""
    return process_time_ns() + sum(_proc_cpu_ns(p) for p in pids)


def peak_rss_mib(pids: list[int]) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_proc_hwm_kib(p) for p in pids)) / 1024.0


# ----------------------------------------------------------------------
# measurement record
# ----------------------------------------------------------------------

class Run:
    """What one timed phase measured.  Latencies go to ``array('q')``
    so the harness's own memory does not grow by a Python object per
    request.

    The timed phase is cut into chunks that recur: a chunk of the
    read workloads' op cycle comes round once per pass over the cycle,
    and an operation of write_federated runs once on each replica
    deployment.  ``best`` keeps, per chunk, the least wall time, read
    time and CPU time any of its runs took, so a co-tenant that slows
    the host for part of the phase moves the end-to-end figures less
    than it moves a whole-phase average.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.wall_s = 0.0
        self.read_ns = array("q")
        self.write_ns = array("q")
        self.sync_ns = array("q")
        #: chunk key -> [requests, reads, wall ns, read ns, CPU ns]
        self.best: dict[int, list[int]] = {}
        self._start = 0
        self.sync_items = 0
        self.recover_s: list[float] = []
        self.rss_mib = 0.0
        self.writes = 0
        #: blog rows per post and provider after the final sync pass
        #: (write_federated; 1.0 would mean edits never duplicate rows)
        self.rows_per_post = 0.0
        self.counters_before: dict[str, float] = {}
        self.counters_after: dict[str, float] = {}
        self.trace_before: dict[str, Any] = {}
        self.trace_after: dict[str, Any] = {}

    def chunk(self, key: int, requests: int, reads: int, wall_ns: int,
              read_ns: int, cpu_ns: int) -> None:
        """Record one run of a chunk."""
        best = self.best.get(key)
        if best is None:
            self.best[key] = [requests, reads, wall_ns, read_ns, cpu_ns]
            return
        best[2] = min(best[2], wall_ns)
        best[3] = min(best[3], read_ns)
        best[4] = min(best[4], cpu_ns)

    def start(self) -> None:
        self._start = perf_counter_ns()

    def stop(self, requests: int) -> None:
        """End the timed phase: ``requests`` front-door requests."""
        self.requests = requests
        self.wall_s = (perf_counter_ns() - self._start) / 1e9


class Workload:
    """Build a deployment, then drive it for a fixed number of
    operations, so every run of a seed does identical work."""

    name = ""

    def __init__(self, spec: dict[str, Any], seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.world = self.make_world()

    def make_world(self) -> World:
        s = self.spec
        return World(s["users"], s["posts_per_user"], self.seed,
                     s["zipf_skew"])

    def stream(self) -> Iterator[Op]:
        raise NotImplementedError

    def ops_for(self, seconds: float) -> int:
        """The timed phase's operation count: ``seconds`` at the
        workload's nominal rate (see spec.json)."""
        return max(1, round(seconds * self.spec["nominal_ops_per_s"]))

    def build(self, tracer: Optional[LayerTracer]) -> Any:
        raise NotImplementedError

    def teardown(self, deployment: Any) -> None:
        """Release a deployment (and reap anything it started)."""

    def drive(self, deployments: list, n_ops: int, checker: Checker,
              tracer: Optional[LayerTracer]) -> Run:
        """Run the timed phase on ``deployments`` (one, or
        ``replicas`` of them where the workload has replicas)."""
        raise NotImplementedError


class ReadLabeled(Workload):
    name = "read_labeled"

    def stream(self) -> Iterator[Op]:
        return read_ops(self.world, self.spec["mix"], self.seed)

    def build(self, tracer: Optional[LayerTracer]) -> Any:
        world = self.world
        p = Provider(name="w5", config=CONFIG,
                     resources=ResourceManager(fast=CONFIG.batched_charges),
                     audit_max_events=AUDIT_RING)
        for module in _modules(tracer):
            p.register_app(module)
        for u in world.users:
            p.signup(u, PASSWORD)
        _grant_policies(p, world)
        tokens = {}
        for u in world.users:
            response = p.handle_request(_login(u))
            _expect_ok([response], "login")
            tokens[u] = response.set_cookies[SESSION_COOKIE]
        posts, edges = _seed_requests(world, tokens)
        _expect_ok([p.handle_request(r) for r in posts], "posts")
        _expect_ok([p.handle_request(r) for r in edges], "befriend")
        return p, tokens

    def drive(self, deployments: list, n_ops: int, checker: Checker,
              tracer: Optional[LayerTracer]) -> Run:
        p, tokens = deployments[0]
        if tracer is not None:
            wrap_provider(tracer, p)
        ops = _cycle(self.stream(), self.spec["cycle_ops"])
        run = Run()
        handle = p.handle_request
        call = (lambda r: tracer.root(handle, r)) if tracer else handle
        run.counters_before = provider_counters(p)
        run.trace_before = tracer.snapshot() if tracer else {}
        read_ns = run.read_ns
        n = len(ops)
        size = self.spec["chunk_ops"]
        if n % size:
            raise ValueError("cycle_ops must be whole chunks")
        run.start()
        for start in range(0, n_ops, size):
            end = min(start + size, n_ops)
            c0 = process_time_ns()
            t0 = perf_counter_ns()
            reads = 0
            for i in range(start, end):
                op = ops[i % n]
                request = _request(op.path, op.params, tokens[op.viewer])
                if tracer is not None:
                    tracer.rid = i
                a = perf_counter_ns()
                try:
                    response = call(request)
                except Exception as exc:  # noqa: BLE001 - counted
                    response = exc
                b = perf_counter_ns()
                read_ns.append(b - a)
                reads += b - a
                checker.check(op, response)
            t1 = perf_counter_ns()
            c1 = process_time_ns()
            run.chunk(start % n, end - start, end - start, t1 - t0, reads,
                      c1 - c0)
        run.stop(n_ops)
        run.counters_after = provider_counters(p)
        run.trace_after = tracer.snapshot() if tracer else {}
        run.rss_mib = peak_rss_mib([])
        return run


class FleetBatch(ReadLabeled):
    name = "fleet_batch"

    def make_world(self) -> World:
        s = self.spec
        ring = ShardMap(s["shards"])
        return World(s["users"], s["posts_per_user"], self.seed,
                     s["zipf_skew"], shard_of=ring.shard_of_user)

    def build(self, tracer: Optional[LayerTracer]) -> Any:
        world = self.world
        s = self.spec
        sp = ShardedProvider(
            name="w5", n_shards=s["shards"], config=CONFIG,
            engine=s["engine"], audit_max_events=AUDIT_RING,
            resources_factory=lambda: ResourceManager(
                fast=CONFIG.batched_charges))
        for module in _modules(tracer):
            sp.register_app(module)
        channel = None
        if tracer is not None:
            channel = FleetChannel(s["shards"])
            wrap_fleet(tracer, sp, channel)
        for u in world.users:
            sp.signup(u, PASSWORD)
        _grant_policies(sp, world)
        # the first dispatch forks the shard children
        logins = sp.handle_batch([_login(u) for u in world.users])
        _expect_ok(logins, "login")
        tokens = {u: r.set_cookies[SESSION_COOKIE]
                  for u, r in zip(world.users, logins)}
        posts, edges = _seed_requests(world, tokens)
        _expect_ok(sp.handle_batch(posts), "posts")
        _expect_ok(sp.handle_batch(edges), "befriend")
        return sp, tokens, channel

    def teardown(self, deployment: Any) -> None:
        sp, __, channel = deployment
        sp.shutdown()
        if channel is not None:
            channel.close()

    def ops_for(self, seconds: float) -> int:
        """Whole bursts only."""
        burst = self.spec["burst"]
        return max(1, round(super().ops_for(seconds) / burst)) * burst

    def drive(self, deployments: list, n_ops: int, checker: Checker,
              tracer: Optional[LayerTracer]) -> Run:
        sp, tokens, __ = deployments[0]
        burst = self.spec["burst"]
        ops = _cycle(self.stream(), self.spec["cycle_ops"])
        pids = child_pids()
        if len(pids) != self.spec["shards"]:
            raise RuntimeError(f"found shard processes {pids}, expected "
                               f"{self.spec['shards']}: their CPU and "
                               f"memory would go uncounted")
        run = Run()
        handle = sp.handle_batch
        call = (lambda r: tracer.root(handle, r)) if tracer else handle
        routed0 = sum(sp.routed)
        if tracer is not None:
            run.counters_before = _shard_counters(tracer)
            run.trace_before = tracer.snapshot()
        n = len(ops)
        if n % burst:
            raise ValueError("cycle_ops must be whole bursts")
        batch_ns = run.read_ns
        run.start()
        for i in range(0, n_ops, burst):
            batch = [ops[(i + k) % n] for k in range(burst)]
            c0 = cpu_ns(pids)
            t0 = perf_counter_ns()
            requests = [_request(op.path, op.params, tokens[op.viewer])
                        for op in batch]
            if tracer is not None:
                tracer.rid = i
            a = perf_counter_ns()
            try:
                responses = call(requests)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                responses = [exc] * len(batch)
            b = perf_counter_ns()
            batch_ns.append(b - a)
            for op, response in zip(batch, responses):
                checker.check(op, response)
            for op in batch[len(responses):]:
                checker.check(op, None)
            t1 = perf_counter_ns()
            c1 = cpu_ns(pids)
            # a request's latency is the wall time of its burst
            run.chunk(i % n, burst, burst, t1 - t0, (b - a) * burst,
                      c1 - c0)
        run.stop(n_ops)
        run.rss_mib = peak_rss_mib(pids)
        if tracer is not None:
            run.counters_after = _shard_counters(tracer)
            run.counters_before["shards.routed"] = routed0
            run.counters_after["shards.routed"] = sum(sp.routed)
            run.trace_after = tracer.snapshot()
        return run


def _shard_counters(tracer: LayerTracer) -> dict[str, float]:
    total: dict[str, float] = {}
    for counters in tracer.shard_counters.values():
        add_counters(total, counters)
    return total


class WriteFederated(Workload):
    name = "write_federated"

    def stream(self) -> Iterator[Op]:
        ring = ShardMap(self.spec["providers"])
        s = self.spec
        self.model = FederatedModel(
            self.world, ring.shard_of_user, s["mix"], s["sync_every_ops"],
            s["policy_every_ops"], s["snapshot_every_syncs"],
            s["edits_per_post"], self.seed)
        return self.model.ops()

    def ops_for(self, seconds: float) -> int:
        """Whole sync cycles only."""
        every = self.spec["sync_every_ops"]
        return max(1, round(super().ops_for(seconds) / every)) * every

    def build(self, tracer: Optional[LayerTracer]) -> Any:
        world = self.world
        fabric = FederationFabric(self.spec["providers"],
                                  provider_config=CONFIG)
        for p in fabric.providers:
            for module in _modules(tracer):
                p.register_app(module)
        homes = {}
        for u in world.users:
            homes[u] = fabric.signup(u, PASSWORD)
        for u in world.users:
            for index in range(len(fabric.providers)):
                if index != homes[u]:
                    fabric.mirror(u, index)
        for p in fabric.providers:
            _grant_policies(p, world)
        tokens = {}
        for u in world.users:
            response = fabric.providers[homes[u]].handle_request(_login(u))
            _expect_ok([response], "login")
            tokens[u] = response.set_cookies[SESSION_COOKIE]
        _expect_ok([fabric.providers[homes[u]].handle_request(_request(
            "/app/blog/post", {"title": t, "body": world.bodies[(u, t)]},
            tokens[u])) for u in world.users for t in world.titles[u]],
            "posts")
        # the first pass mirrors the seed posts; the second consumes the
        # journal records the first one wrote, so timed passes start
        # from cursors at the end of every journal
        fabric.sync_all()
        fabric.sync_all()
        return fabric, tokens, homes

    def drive(self, deployments: list, n_ops: int, checker: Checker,
              tracer: Optional[LayerTracer]) -> Run:
        """Send each operation of the stream to every replica, each
        replica ``replica_lag_ops`` operations behind the one before
        it, so an operation's runs are far enough apart in time that a
        slow stretch of the host rarely covers them all; each
        operation's best time is the least of its runs."""
        first = deployments[0][0]
        if tracer is not None:
            for p in first.providers:
                wrap_provider(tracer, p)
            wrap_federation(tracer, first)
        root: Callable[..., Any] = (
            tracer.root if tracer else (lambda fn, *a: fn(*a)))
        run = Run()
        run.counters_before = _fabric_counters(first)
        run.trace_before = tracer.snapshot() if tracer else {}
        passes = n_ops // self.spec["sync_every_ops"]
        ops = []
        for op in self.stream():
            ops.append(op)
            passes -= op.kind == "sync"
            if not passes:
                break
        model = self.model
        lag = self.spec["replica_lag_ops"]
        run.start()
        for step in range(len(ops) + lag * (len(deployments) - 1)):
            for replica, (fabric, tokens, homes) in enumerate(deployments):
                key = step - replica * lag
                if not 0 <= key < len(ops):
                    continue
                op = ops[key]
                kind = op.kind
                front = kind not in ("sync", "snapshot", "policy")
                is_read = front and kind not in ("post", "edit")
                read = 0
                c0 = process_time_ns()
                t0 = perf_counter_ns()
                if kind == "sync":
                    run.sync_items += root(fabric.sync_all)
                elif kind == "snapshot":
                    # the operator's periodic backup: an O(dirty) delta,
                    # or a compaction once the journal crossed its
                    # threshold
                    for p in fabric.providers:
                        root(snapshot_provider, p, True)
                elif kind == "policy":
                    for p in fabric.providers:
                        try:
                            updated = root(_edit_policy, p, op)
                        except Exception as exc:  # noqa: BLE001 - counted
                            updated = exc
                        checker.check_outcome("policy", updated == 1,
                                              f"{op.viewer}: {updated!r}")
                else:
                    request = _request(op.path, op.params,
                                       tokens[op.viewer])
                    handle = fabric.providers[homes[op.viewer]].handle_request
                    if tracer is not None:
                        tracer.rid = key
                    a = perf_counter_ns()
                    try:
                        response = root(handle, request)
                    except Exception as exc:  # noqa: BLE001 - counted
                        response = exc
                    b = perf_counter_ns()
                    if is_read:
                        run.read_ns.append(b - a)
                        read = b - a
                    else:
                        run.write_ns.append(b - a)
                    checker.check(op, response)
                t1 = perf_counter_ns()
                c1 = process_time_ns()
                if kind == "sync":
                    run.sync_ns.append(t1 - t0)
                run.chunk(key, int(front), int(is_read), t1 - t0, read,
                          c1 - c0)
        run.stop(sum(op.kind not in ("sync", "snapshot", "policy")
                     for op in ops))
        run.rss_mib = peak_rss_mib([])
        run.writes = len(run.write_ns)
        run.counters_after = _fabric_counters(first)
        run.trace_after = tracer.snapshot() if tracer else {}
        for fabric, __, __ in deployments:
            self._converge(fabric, model, checker, run)
            self._recover(fabric, checker, run)
        return run

    def _converge(self, fabric: Any, model: FederatedModel,
                  checker: Checker, run: Run) -> None:
        """Final sync pass, then every mirror must hold its home's
        files, and each side exactly the blog rows the model predicts
        for it (duplicates count)."""
        fabric.sync_all()
        homes = {u: fabric.providers[fabric.home_of(u)]
                 for u in self.world.users}
        rows = 0
        for link in fabric.links():
            for u in self.world.users:
                checker.check_outcome("converged", converged(link, u), u)
                for side in (link.a, link.b):
                    want = Counter(tuple(sorted(r.items())) for r in
                                   model.rows(u, side is homes[u]))
                    got = _rows(side, u)
                    rows += sum(got.values())
                    checker.check_outcome(
                        "rows", got == want,
                        f"{u} on {side.name}: {sum(got.values())} rows, "
                        f"want {sum(want.values())}")
        posts = sum(len(model.titles[u]) for u in self.world.users)
        run.rows_per_post = rows / (2 * len(fabric.links()) * posts)

    def _recover(self, fabric: Any, checker: Checker, run: Run) -> None:
        for index in range(len(fabric.providers)):
            before = snapshot_provider(fabric.providers[index])
            t0 = perf_counter()
            fabric.crash(index)
            fabric.recover(index)
            run.recover_s.append(perf_counter() - t0)
            after = snapshot_provider(fabric.providers[index])
            checker.check_outcome("recovery", after == before,
                                  f"provider {index}")


def _edit_policy(p: Any, op: Op) -> int:
    return p.update_declassifier_config(op.viewer, "friends-only",
                                        friends=op.params["friends"])


def _rows(p: Any, user: str) -> Counter:
    """The user's blog rows as a multiset of their values."""
    tag = p.account(user).data_tag
    table = p.db.table("blog_posts")
    return Counter(tuple(sorted(row.values.items()))
                   for row in table.rows.values() if tag in row.slabel)


def _fabric_counters(fabric: Any) -> dict[str, float]:
    total = federation_counters(fabric)
    for p in fabric.providers:
        add_counters(total, provider_counters(p))
    return total


def _cycle(stream: Iterator[Op], n: int) -> list[Op]:
    out = []
    for op in stream:
        out.append(op)
        if len(out) >= n:
            return out
    return out


WORKLOADS = {w.name: w for w in (ReadLabeled, WriteFederated, FleetBatch)}

