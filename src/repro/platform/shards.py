"""Sharded concurrent request plane (M13).

PRs 1–6 made one provider's request path ~40–50× faster, but the
provider is still one Python object handling one request at a time.
This module scales *out* instead of *up*: a :class:`ShardedProvider`
partitions users across N full :class:`~repro.platform.provider.Provider`
shards — each with its own kernel, tag registry, audit log, process
pool, stores, plan cache and write-ahead journal (the M10 journal is
the per-shard log) — and routes every request to the shard that owns
its subject.

**Placement.**  A :class:`ShardMap` consistent-hash ring (vnode
replicas, stable blake2b points — never Python's randomized ``hash``)
assigns each username a shard.  Because every labeled partition key in
the M9 data plane is an interned ``(slabel, ilabel)`` pair whose tags
carry their owner, :meth:`ShardMap.shard_of_pair` derives the *data*
placement from the same ring: a partition lives on the shard of the
first (deterministically ordered) tag owner in its secrecy label.
Users are the unit of sharding, so a user's sessions, account row,
files, db partitions, grants, plans and journal records are all
shard-local by construction — shards share **no** mutable state, which
is what makes concurrent execution trivially linearizable per shard.

**Engines.**  Shard execution has two engines:

* ``serial`` — in-line on the caller thread, ascending shard order.
  The deterministic baseline and the default at every shard count.
* ``fork`` — one forked child process per shard speaking a pickled
  pipe protocol (batch-oriented), opt-in with ``engine="fork"``.  The
  engine that scales with cores under the GIL;
  ``benchmarks/m13_shards.py`` measures it.  Parent-side aliases
  (``W5System.resources`` is shard 0's manager) go stale once the
  children fork, which is why it is not the default.

**Deterministic merge.**  Each shard's audit stream is already
deterministic (per-shard seq order); :class:`MergedAuditView` merges
the streams by ``(shard, seq)`` — a total order independent of
process scheduling — so the merged stream is byte-identical
run-to-run and engine-to-engine.
``tests/platform/test_shard_differential.py`` proves: fork == serial
at every shard count, and a 1-shard ``ShardedProvider`` == the classic
unsharded plane, responses and audit streams both.
"""

from __future__ import annotations

import os
import pickle
from bisect import bisect_right
from hashlib import blake2b
from functools import partial
from typing import Any, Callable, Iterator, Optional, Sequence

from ..errors import W5Error
from ..kernel.audit import AuditEvent
from ..net import SESSION_COOKIE, HttpRequest, HttpResponse, error
from ..obs import NULL_TRACER, FlightRecorder, LatencyHistogram, Tracer
from ..obs.fleet import _worst
from ..obs.trace import TraceContext
from .config import ProviderConfig
from .provider import Provider

#: The SessionManager default seed (shard 0 keeps it; shard k adds k,
#: so no two shards ever mint the same session token).
_SESSION_SEED = 0x57515

#: Params consulted, in order, to route an *anonymous* app request to
#: the shard owning the data it names (a locality heuristic only —
#: correctness never depends on it, since anonymous requests touch no
#: session state and every shard serves the same app catalog).
_ANON_USER_PARAMS = ("username", "user", "author", "owner")


class ShardMap:
    """Consistent-hash ring mapping owners to shards.

    ``replicas`` vnodes per shard smooth the distribution; points come
    from blake2b so placement is stable across processes and runs
    (Python's ``hash`` is randomized per interpreter).  Consistent
    hashing (vs ``hash % N``) keeps most placements stable when a
    future PR resizes the ring.
    """

    def __init__(self, n_shards: int, replicas: int = 64) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self.replicas = replicas
        ring = sorted(
            (self._point(f"shard:{shard}:{vnode}"), shard)
            for shard in range(n_shards) for vnode in range(replicas))
        self._points = [p for p, _ in ring]
        self._owners = [s for _, s in ring]

    @staticmethod
    def _point(key: str) -> int:
        digest = blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def shard_of(self, key: str) -> int:
        """The shard owning an arbitrary string key."""
        if self.n_shards == 1:
            return 0
        i = bisect_right(self._points, self._point(key))
        if i == len(self._points):
            i = 0
        return self._owners[i]

    def shard_of_user(self, username: str) -> int:
        """The shard that is ``username``'s home."""
        return self.shard_of(f"user:{username}")

    def shard_of_pair(self, slabel: Any, ilabel: Any) -> int:
        """Placement of an interned ``(slabel, ilabel)`` partition key.

        The M9 data plane partitions every table by this pair; each
        user-data tag carries its owner, so the pair's placement is the
        ring position of its first owner (owners sorted for
        determinism — in practice user-data labels carry exactly one
        owned tag).  Unowned pairs (public/unlabeled data) land on
        shard 0, where they are replicated state anyway.
        """
        for label in (slabel, ilabel):
            owners = sorted(t.owner for t in label if t.owner)
            if owners:
                return self.shard_of_user(owners[0])
        return 0

    def distribution(self, keys: Sequence[str]) -> list[int]:
        """Shard population for ``keys`` (ring-quality diagnostics)."""
        counts = [0] * self.n_shards
        for key in keys:
            counts[self.shard_of(key)] += 1
        return counts


# ----------------------------------------------------------------------
# execution engines
# ----------------------------------------------------------------------

def _resolve(provider: Provider, method: Any) -> Callable[..., Any]:
    """``"declass.grant_for"`` → the bound method on ``provider``; a
    module-level function ``f(provider, ...)`` → ``f`` bound to it."""
    if callable(method):
        return partial(method, provider)
    obj: Any = provider
    for part in method.split("."):
        obj = getattr(obj, part)
    return obj


class _SerialEngine:
    """In-line execution, ascending shard order: the deterministic
    schedule the fork engine must reproduce per shard."""

    name = "serial"

    def __init__(self, shards: list[Provider]) -> None:
        self.shards = shards

    def request(self, shard: int, request: HttpRequest) -> HttpResponse:
        return self.shards[shard].handle_request(request)

    def run_batches(self, groups: dict[int, list[HttpRequest]],
                    ctx: Optional[TraceContext] = None
                    ) -> tuple[dict[int, list[HttpResponse]],
                               dict[int, list[dict]]]:
        responses: dict[int, list[HttpResponse]] = {}
        skeletons: dict[int, list[dict]] = {}
        for shard, reqs in sorted(groups.items()):
            responses[shard], skeletons[shard] = \
                self.shards[shard].handle_batch_traced(reqs, ctx)
        return responses, skeletons

    def call(self, shard: int, method: Any,
             args: tuple = (), kwargs: Optional[dict] = None) -> Any:
        return _resolve(self.shards[shard], method)(*args, **(kwargs or {}))

    def broadcast(self, method: str, args: tuple = (),
                  kwargs: Optional[dict] = None) -> list[Any]:
        return [_resolve(s, method)(*args, **(kwargs or {}))
                for s in self.shards]

    def audit_events(self, shard: int) -> list[AuditEvent]:
        return list(self.shards[shard].kernel.audit)

    def shutdown(self) -> None:
        pass


def _plain_response(resp: HttpResponse) -> tuple:
    """Reduce a response to picklable plain data.  The gateway already
    re-stamped ``content_label`` to EMPTY at egress, so nothing is
    lost crossing the pipe."""
    return (resp.status, resp.body, resp.headers, resp.set_cookies)


def _rebuild_response(plain: tuple) -> HttpResponse:
    status, body, headers, set_cookies = plain
    return HttpResponse(status=status, body=body, headers=headers,
                        set_cookies=set_cookies)


def _transportable_exc(exc: BaseException) -> BaseException:
    """The exception itself when picklable, else a W5Error replica."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return W5Error(f"{type(exc).__name__}: {exc}")


def _fork_worker(shard: Provider, conn: Any) -> None:
    """The child process loop: one shard, one pipe, batch-oriented."""
    while True:
        try:
            op = conn.recv()
        except EOFError:
            return
        kind = op[0]
        try:
            if kind == "batch":
                # op = ("batch", requests, trace_context|None): spans
                # recorded in this child are serialized to skeleton
                # dicts and shipped back with the responses — never
                # silently lost to the process boundary (M16)
                ctx = op[2] if len(op) > 2 else None
                resps, skeletons = shard.handle_batch_traced(op[1], ctx)
                conn.send(("ok", ([_plain_response(r) for r in resps],
                                  skeletons)))
            elif kind == "request":
                conn.send(("ok",
                           _plain_response(shard.handle_request(op[1]))))
            elif kind == "call":
                result = _resolve(shard, op[1])(*op[2], **op[3])
                try:
                    conn.send(("ok", result))
                except Exception:
                    # control calls are for effect; an unpicklable
                    # return (a grant, an account) degrades to None
                    conn.send(("ok", None))
            elif kind == "audit":
                conn.send(("ok", [
                    (e.seq, e.category, e.allowed, e.subject, e.detail)
                    for e in shard.kernel.audit]))
            elif kind == "stop":
                conn.send(("ok", True))
                return
            else:  # pragma: no cover - protocol guard
                conn.send(("err", W5Error(f"unknown op {kind!r}")))
        except BaseException as exc:
            conn.send(("err", _transportable_exc(exc)))


class _ForkEngine:
    """One forked child process per shard, batch-oriented pipe RPC.

    The only engine that scales with cores under the GIL.  Children
    are forked lazily on first dispatch, so all setup done before then
    (signups, enables, grants) is inherited by every child for free;
    control calls after the fork cross the pipe.  Requests pickle as
    plain dataclasses; responses come back as ``(status, body,
    headers, set_cookies)`` tuples (egress already stripped labels).

    Requests to a shard whose child died fail closed: they answer 503
    ``shard unavailable``, never an exception or another request's
    reply.  Control calls (``call``, ``broadcast``, ``audit_events``)
    still raise.
    """

    name = "fork"

    def __init__(self, shards: list[Provider]) -> None:
        if not hasattr(os, "fork"):  # pragma: no cover - platform gate
            raise W5Error("the fork shard engine needs os.fork (POSIX); "
                          "use engine='serial' here")
        self.shards = shards
        self._conns: Optional[list[Any]] = None
        self._pids: list[int] = []

    def _ensure_started(self) -> list[Any]:
        if self._conns is not None:
            return self._conns
        import multiprocessing
        conns = []
        for shard in self.shards:
            parent, child = multiprocessing.Pipe()
            pid = os.fork()
            if pid == 0:  # child
                parent.close()
                try:
                    _fork_worker(shard, child)
                finally:
                    os._exit(0)
            child.close()
            conns.append(parent)
            self._pids.append(pid)
        self._conns = conns
        return conns

    def _send(self, shard: int, op: tuple) -> None:
        conn = self._conns[shard]
        try:
            conn.send(op)
        except OSError:
            conn.close()  # every later call fails fast: shard reads down
            raise

    def _recv(self, shard: int) -> Any:
        conn = self._conns[shard]
        try:
            status, payload = conn.recv()
        except (EOFError, OSError):
            conn.close()
            raise
        if status == "err":
            raise payload
        return payload

    def _rpc(self, shard: int, op: tuple) -> Any:
        self._send(shard, op)
        return self._recv(shard)

    def request(self, shard: int, request: HttpRequest) -> HttpResponse:
        self._ensure_started()
        try:
            plain = self._rpc(shard, ("request", request))
        except (EOFError, OSError):
            return error(503, "shard unavailable")
        return _rebuild_response(plain)

    def run_batches(self, groups: dict[int, list[HttpRequest]],
                    ctx: Optional[TraceContext] = None
                    ) -> tuple[dict[int, list[HttpResponse]],
                               dict[int, list[dict]]]:
        """Fan every group out, then collect the replies.

        A shard whose pipe fails (a dead child) answers 503 in each of
        its slots, and every other shard is still sent to and received
        from, so no reply stays queued on a live pipe to be misread by
        its next call.  Any other failure is re-raised after that
        drain."""
        self._ensure_started()
        sent = []
        down = []
        for shard, reqs in sorted(groups.items()):
            try:  # fan out first: children overlap
                self._send(shard, ("batch", reqs, ctx))
            except OSError:
                down.append(shard)
                continue
            sent.append(shard)
        responses: dict[int, list[HttpResponse]] = {}
        skeletons: dict[int, list[dict]] = {}
        failure: Optional[BaseException] = None
        for shard in sent:
            try:
                plain, skels = self._recv(shard)
            except (EOFError, OSError):
                down.append(shard)
                continue
            except Exception as exc:
                failure = failure or exc
                continue
            responses[shard] = [_rebuild_response(t) for t in plain]
            skeletons[shard] = skels
        if failure is not None:
            raise failure
        for shard in down:
            responses[shard] = [error(503, "shard unavailable")
                                for _ in groups[shard]]
            skeletons[shard] = []
        return responses, skeletons

    def call(self, shard: int, method: Any,
             args: tuple = (), kwargs: Optional[dict] = None) -> Any:
        if self._conns is None:
            # pre-fork: run in the parent so children inherit the effect
            return _resolve(self.shards[shard], method)(
                *args, **(kwargs or {}))
        return self._rpc(shard, ("call", method, args, kwargs or {}))

    def broadcast(self, method: str, args: tuple = (),
                  kwargs: Optional[dict] = None) -> list[Any]:
        # one shard at a time, as health_report asks: a shard that
        # fails leaves no reply queued behind it on another pipe
        return [self.call(k, method, args, kwargs)
                for k in range(len(self.shards))]

    def audit_events(self, shard: int) -> list[AuditEvent]:
        if self._conns is None:
            return list(self.shards[shard].kernel.audit)
        rows = self._rpc(shard, ("audit",))
        return [AuditEvent(seq, category, allowed, subject, detail)
                for seq, category, allowed, subject, detail in rows]

    def shutdown(self) -> None:
        if self._conns is None:
            return
        for k, conn in enumerate(self._conns):
            try:
                self._rpc(k, ("stop",))
                conn.close()
            except (EOFError, OSError):
                pass
        for pid in self._pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        self._conns = None
        self._pids = []


_ENGINES: dict[str, Any] = {
    "serial": _SerialEngine,
    "fork": _ForkEngine,
}


def _shard_placement(shard: Provider, ring: ShardMap,
                     k: int) -> tuple[int, int]:
    """``(partitions, misplaced)`` for shard ``k``'s M9 partition keys
    (runs where the shard lives: in-line, or in its fork child)."""
    partitions = misplaced = 0
    for table in shard.db._tables.values():
        for slabel, ilabel in getattr(table, "partitions", None) or ():
            partitions += 1
            # unowned pairs are replicated state, at home anywhere;
            # owned pairs must live on their ring shard
            if (any(t.owner for t in slabel)
                    and ring.shard_of_pair(slabel, ilabel) != k):
                misplaced += 1
    return partitions, misplaced


# ----------------------------------------------------------------------
# merged observability
# ----------------------------------------------------------------------

class MergedAuditView:
    """The sharded deployment's audit stream, merged by ``(shard, seq)``.

    Within a shard, events are already totally ordered by ``seq``; the
    merge concatenates shard streams in shard order — a deterministic
    total order independent of process scheduling, so the merged
    stream is byte-identical between the serial and fork engines on
    the same per-shard request order.  Exposes the read side of the
    :class:`~repro.kernel.audit.AuditLog` query API; it is a *view* —
    every read re-merges live shard state.
    """

    def __init__(self, owner: "ShardedProvider") -> None:
        self._owner = owner

    def per_shard(self) -> list[list[AuditEvent]]:
        """Each shard's stream, in shard order (events shared, not
        copied — treat as read-only)."""
        engine = self._owner._engine
        return [engine.audit_events(k)
                for k in range(self._owner.n_shards)]

    def __iter__(self) -> Iterator[AuditEvent]:
        for stream in self.per_shard():
            yield from stream

    def __len__(self) -> int:
        return sum(len(s) for s in self.per_shard())

    def events(self, category: Optional[str] = None,
               subject: Optional[str] = None,
               allowed: Optional[bool] = None) -> list[AuditEvent]:
        out = []
        for e in self:
            if category is not None and e.category != category:
                continue
            if subject is not None and e.subject != subject:
                continue
            if allowed is not None and e.allowed != allowed:
                continue
            out.append(e)
        return out

    def denials(self, category: Optional[str] = None) -> list[AuditEvent]:
        return self.events(category=category, allowed=False)

    def count(self, category: Optional[str] = None,
              allowed: Optional[bool] = None) -> int:
        return len(self.events(category=category, allowed=allowed))

    def last(self) -> Optional[AuditEvent]:
        for stream in reversed(self.per_shard()):
            if stream:
                return stream[-1]
        return None


class _ShardedKernelView:
    """The slice of the kernel surface a front end can meaningfully
    merge: today, the audit stream (``W5System.audit()`` reads it)."""

    def __init__(self, owner: "ShardedProvider") -> None:
        self.audit = MergedAuditView(owner)


class _ShardedDeclassView:
    """Routes the declassification reads W5System's sugar needs to the
    owning shard (e.g. ``declass.grant_for(user, name)``)."""

    def __init__(self, owner: "ShardedProvider") -> None:
        self._owner = owner

    def grant_for(self, username: str, name: str) -> Any:
        return self._owner._user_call(username, "declass.grant_for",
                                      username, name)


# ----------------------------------------------------------------------
# the front end
# ----------------------------------------------------------------------

class ShardedProvider:
    """N full providers behind one router.

    Quacks like a :class:`Provider` for the surfaces W5System, the
    external clients and the benchmarks use: ``handle_request`` /
    ``handle_batch`` / ``transport``, the user-policy verbs (routed to
    the owning shard), app registration (broadcast — every shard
    serves the whole catalog), and merged observability
    (``kernel.audit``, ``trace_report``, ``stats``).

    Routing: ``/signup`` and ``/login`` go by the ``username`` param;
    authenticated requests go by session cookie (the front end records
    token → shard when a login response passes through); anonymous
    requests go by a user-naming param when present, else by path
    hash.  At 1 shard, routing short-circuits entirely — the classic
    plane with a dictionary's worth of indirection removed, which is
    the "no regression when sharding is off" guarantee the M13
    benchmark pins.
    """

    def __init__(self, name: str = "w5", n_shards: int = 2,
                 config: Optional[ProviderConfig] = None,
                 engine: Optional[str] = None,
                 js_policy: str = "block",
                 rate_limit: Optional[int] = None,
                 audit_max_events: Optional[int] = None,
                 tracing: bool = False,
                 resources_factory: Optional[Callable[[], Any]] = None,
                 replicas: int = 64) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        base = config if config is not None else ProviderConfig()
        if engine is None:
            engine = base.shard_engine
        if engine not in _ENGINES:
            raise ValueError(f"unknown shard engine {engine!r} "
                             f"(have {sorted(_ENGINES)})")
        #: The deployment-level config (records the shard count).
        self.config = base.replace(shards=n_shards, shard_engine=engine)
        per_shard = base.replace(shards=1, shard_engine="serial")
        self.name = name
        self.n_shards = n_shards
        self.map = ShardMap(n_shards, replicas=replicas)
        #: The shard providers.  Shard 0 keeps the default session
        #: seed (a 1-shard deployment is byte-identical to the classic
        #: plane); shard k seeds with base+k so tokens never collide.
        self.shards: list[Provider] = []
        for k in range(n_shards):
            self.shards.append(Provider(
                name=name,
                resources=(resources_factory() if resources_factory
                           else None),
                js_policy=js_policy,
                rate_limit=rate_limit,
                audit_max_events=audit_max_events,
                tracing=tracing,
                config=per_shard,
                session_seed=None if k == 0 else _SESSION_SEED + k))
        self.engine_name = engine
        self._engine = _ENGINES[engine](self.shards)
        #: The router's own tracer (M16): cross-shard batches open a
        #: ``router.batch`` root here, export its context to every
        #: shard they fan out to, and graft the returned span
        #: skeletons — so the router recorder holds the *stitched*
        #: causal tree spanning every shard a batch touched.
        self.tracing = tracing
        if tracing:
            self.tracer: Any = Tracer()
            self.recorder: Optional[FlightRecorder] = FlightRecorder()
            self.tracer.sink = self.recorder.offer
        else:
            self.tracer = NULL_TRACER
            self.recorder = None
        self._token_shard: dict[str, int] = {}
        #: Requests routed per shard (front-end side, any engine).
        self.routed: list[int] = [0] * n_shards
        self.kernel = _ShardedKernelView(self)
        self.declass = _ShardedDeclassView(self)

    # -- routing -------------------------------------------------------

    def shard_for(self, request: HttpRequest) -> int:
        """The shard this request must execute on."""
        if self.n_shards == 1:
            return 0
        parts = request.path_parts()
        if parts and parts[0] in ("signup", "login"):
            username = request.params.get("username")
            if username is not None:
                return self.map.shard_of_user(username)
        token = request.cookies.get(SESSION_COOKIE)
        if token:
            shard = self._token_shard.get(token)
            if shard is not None:
                return shard
            # unknown token (e.g. replay after front-end restart):
            # deterministic fallback; the shard answers auth errors
            # exactly as the unsharded plane would
            return self.map.shard_of(f"token:{token}")
        for key in _ANON_USER_PARAMS:
            named = request.params.get(key)
            if isinstance(named, str) and named:
                return self.map.shard_of_user(named)
        return self.map.shard_of(f"path:{request.path}")

    def _note_response(self, shard: int, request: HttpRequest,
                       response: HttpResponse) -> None:
        if self.n_shards == 1:
            return
        if response.set_cookies:
            token = response.set_cookies.get(SESSION_COOKIE)
            if token:
                self._token_shard[token] = shard
        parts = request.path_parts()
        if parts and parts[0] == "logout":
            self._token_shard.pop(
                request.cookies.get(SESSION_COOKIE, ""), None)

    # -- the request plane ---------------------------------------------

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        shard = self.shard_for(request)
        self.routed[shard] += 1
        response = self._engine.request(shard, request)
        self._note_response(shard, request, response)
        return response

    def handle_batch(self, requests: Sequence[HttpRequest]
                     ) -> list[HttpResponse]:
        """Fan a burst out across shards (satellite 2).

        Requests are grouped by owning shard *preserving per-shard
        arrival order*, the groups execute (concurrently under the fork
        engine), each through the shard's own ``handle_batch``, and
        responses reassemble in request order —
        so the result is position-for-position identical to sequential
        dispatch.  A 1-shard serial deployment skips the router.
        """
        requests = list(requests)
        if self.n_shards == 1 and self.engine_name == "serial":
            self.routed[0] += len(requests)
            return self.shards[0].handle_batch(requests)
        tracer = self.tracer
        if not tracer.enabled:
            return self._run_batch(requests, None)
        # fleet tracing (M16): one router.batch root per batch; every
        # shard's spans come back as skeletons and graft under it, in
        # (shard, per-shard arrival) order — the same deterministic
        # total order as the audit merge
        with tracer.request("router.batch", n=len(requests)):
            responses = self._run_batch(requests, tracer.export_context())
        return responses

    def _run_batch(self, requests: list[HttpRequest],
                   ctx: Optional[TraceContext]) -> list[HttpResponse]:
        groups: dict[int, list[HttpRequest]] = {}
        slots: dict[int, list[int]] = {}
        assignment = []
        shard_for = self.shard_for
        for i, request in enumerate(requests):
            shard = shard_for(request)
            assignment.append(shard)
            groups.setdefault(shard, []).append(request)
            slots.setdefault(shard, []).append(i)
        for shard, grouped in groups.items():
            self.routed[shard] += len(grouped)
        by_shard, skeletons = self._engine.run_batches(groups, ctx)
        if ctx is not None:
            tracer = self.tracer
            tracer.annotate(shards=len(groups))
            for shard in sorted(skeletons):
                for skeleton in skeletons[shard]:
                    tracer.graft(f"shard:{shard}", skeleton)
        responses: list[Optional[HttpResponse]] = [None] * len(requests)
        for shard, resps in by_shard.items():
            for i, resp in zip(slots[shard], resps):
                responses[i] = resp
        # _note_response inlined for the batch: the common case (no
        # session cookie minted, not a logout) must not pay a method
        # call per request on the fleet's disabled hot path
        token_shard = self._token_shard
        for i, request in enumerate(requests):
            response = responses[i]
            if response.set_cookies:
                token = response.set_cookies.get(SESSION_COOKIE)
                if token:
                    token_shard[token] = assignment[i]
            parts = request.path_parts()
            if parts and parts[0] == "logout":
                token_shard.pop(
                    request.cookies.get(SESSION_COOKIE, ""), None)
        return responses  # type: ignore[return-value]

    def transport(self):
        """The function external clients use as their network."""
        return self.handle_request

    # -- control plane (routed / broadcast) ----------------------------

    def _user_call(self, username: str, method: str,
                   *args: Any, **kwargs: Any) -> Any:
        """Run a per-user verb on the user's home shard."""
        shard = self.map.shard_of_user(username)
        return self._engine.call(shard, method, args, kwargs)

    def shard_of_user(self, username: str) -> int:
        return self.map.shard_of_user(username)

    def signup(self, username: str, password: str) -> Any:
        return self._user_call(username, "signup", username, password)

    def account(self, username: str) -> Any:
        return self._user_call(username, "account", username)

    def set_profile(self, username: str, **fields: str) -> None:
        return self._user_call(username, "set_profile", username, **fields)

    def enable_app(self, username: str, app_name: str,
                   **kwargs: Any) -> Any:
        return self._user_call(username, "enable_app", username,
                               app_name, **kwargs)

    def disable_app(self, username: str, app_name: str) -> None:
        return self._user_call(username, "disable_app", username, app_name)

    def prefer_module(self, username: str, slot: str, module: str) -> None:
        return self._user_call(username, "prefer_module", username,
                               slot, module)

    def grant_declassifier(self, username: str, declassifier: Any) -> Any:
        return self._user_call(username, "grant_declassifier", username,
                               declassifier)

    def grant_builtin_declassifier(self, username: str, name: str,
                                   config: Optional[dict] = None) -> Any:
        return self._user_call(username, "grant_builtin_declassifier",
                               username, name, config)

    def update_declassifier_config(self, username: str, name: str,
                                   **changes: Any) -> Any:
        return self._user_call(username, "update_declassifier_config",
                               username, name, **changes)

    def set_integrity_policy(self, username: str, require: bool) -> None:
        return self._user_call(username, "set_integrity_policy",
                               username, require)

    def set_js_policy(self, username: str, policy: str) -> None:
        return self._user_call(username, "set_js_policy", username, policy)

    def pin_audited(self, username: str, app_name: str,
                    version: str) -> None:
        return self._user_call(username, "pin_audited", username,
                               app_name, version)

    def unpin_audited(self, username: str, app_name: str) -> None:
        return self._user_call(username, "unpin_audited", username,
                               app_name)

    def store_user_data(self, username: str, filename: str,
                        data: Any) -> Any:
        return self._user_call(username, "store_user_data", username,
                               filename, data)

    def read_user_data(self, username: str, filename: str) -> Any:
        return self._user_call(username, "read_user_data", username,
                               filename)

    def delete_account(self, username: str) -> None:
        return self._user_call(username, "delete_account", username)

    def register_app(self, module: Any) -> Any:
        """Broadcast: every shard serves the whole app catalog (apps
        are code, not user state — only *data* is partitioned)."""
        return self._engine.broadcast("register_app", (module,))[0]

    def endorse_module(self, name: str) -> Any:
        return self._engine.broadcast("endorse_module", (name,))[0]

    # -- merged observability ------------------------------------------

    @property
    def apps(self) -> Any:
        """The app registry (shard 0's copy; registration broadcasts,
        so every shard's registry holds the same catalog)."""
        return self.shards[0].apps

    @property
    def usage_edges(self) -> list:
        return self.shards[0].usage_edges

    def placement_report(self) -> dict[str, Any]:
        """Verify data placement against the ring: walk every shard's
        M9 partition keys and check the owning shard derived from the
        interned ``(slabel, ilabel)`` pair is the shard holding it.
        The walk runs inside each shard, so it reads live state under
        either engine."""
        report: dict[str, Any] = {"shards": self.n_shards,
                                  "partitions": 0, "misplaced": 0}
        for k in range(self.n_shards):
            partitions, misplaced = self._engine.call(
                k, _shard_placement, (self.map, k))
            report["partitions"] += partitions
            report["misplaced"] += misplaced
        return report

    def trace_report(self) -> dict[str, Any]:
        """The deployment's *merged* trace report (M16).

        ``stats``/``latencies``/``histograms`` are exact merges across
        every shard plus the router itself (histograms merge
        bucket-wise through their snapshots, so the numbers are
        identical whether the shards ran in-process or behind the fork
        engine's pipe).  ``router`` carries the router tracer's own
        counters and its flight recorder — whose ``router.batch``
        traces are the stitched cross-shard trees, one root per batch
        with every request's subtree grafted under it.  With tracing
        off it is ``{"tracing": False}``, as for one provider.
        """
        shard_reports = self._engine.broadcast("trace_report")
        tracing = self.tracer.enabled or bool(
            shard_reports and shard_reports[0].get("tracing"))
        if not tracing:
            return {"tracing": False}
        stats = {"traces_started": 0, "traces_finished": 0,
                 "spans_dropped": 0}
        merged: dict[str, LatencyHistogram] = {}
        sources = [r for r in shard_reports if r.get("tracing")]
        if self.tracer.enabled:
            sources.append({"stats": self.tracer.stats(),
                            "histograms": {
                                name: hist.snapshot() for name, hist
                                in self.tracer._histograms.items()}})
        for report in sources:
            for key in stats:
                stats[key] += report["stats"].get(key, 0)
            for name, snap in report.get("histograms", {}).items():
                hist = LatencyHistogram.from_snapshot(snap)
                if name in merged:
                    merged[name].merge(hist)
                else:
                    merged[name] = hist
        report: dict[str, Any] = {
            "tracing": True,
            "stats": stats,
            "latencies": {name: hist.as_dict()
                          for name, hist in sorted(merged.items())},
            "histograms": {name: hist.snapshot()
                           for name, hist in sorted(merged.items())},
        }
        if self.tracer.enabled and self.recorder is not None:
            report["router"] = {"stats": self.tracer.stats(),
                                "recorder": self.recorder.dump()}
        return report

    def health_report(self) -> dict[str, Any]:
        """Per-shard readiness gauges rolled up (M16): each shard's
        :meth:`Provider.health_report` (journal lag, pool occupancy,
        plan-cache hit ratio, audit drops) under the worst state.

        Total: shards are asked one at a time, so a dead fork child
        leaves no reply queued on a live shard's pipe, and reads
        ``down`` instead of raising."""
        shard_reports = []
        for k in range(self.n_shards):
            try:
                shard_reports.append(self._engine.call(k, "health_report"))
            except (EOFError, OSError) as exc:
                shard_reports.append({
                    "state": "down", "gauges": {},
                    "reasons": [f"shard {k} unreachable: "
                                f"{type(exc).__name__}"]})
        return {
            "state": _worst(r["state"] for r in shard_reports),
            "shards": shard_reports,
            "router": {"engine": self.engine_name,
                       "routed": list(self.routed),
                       "tokens_tracked": len(self._token_shard)},
        }

    def stats(self) -> dict[str, Any]:
        return {
            "shards": self.n_shards,
            "engine": self.engine_name,
            "routed": list(self.routed),
            "tokens_tracked": len(self._token_shard),
        }

    def shutdown(self) -> None:
        """Stop workers (forked children reaped).
        Idempotent; serial deployments are a no-op."""
        self._engine.shutdown()

    def __enter__(self) -> "ShardedProvider":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardedProvider({self.name!r}, shards={self.n_shards}, "
                f"engine={self.engine_name!r})")
