"""Per-layer tracing from the benchmark's own files.

The traced run replaces public methods on the live instances with
wrappers that time each call.  A layer's self time is a call's wall
time minus the time of the wrapped calls it made; the front-door call
(``handle_request``, ``handle_batch``, ``sync_all``) is the root, so
the root's self time is whatever no wrapped layer accounts for.

Spans (name, start, end, parent, request id) are kept in memory for
the first ``keep_requests`` requests and written out as Chrome
trace-event JSON at the end.  Wrapper call counts are compared with
the program's own counters afterwards; a wrapper that missed calls is
reported, never silently kept.

Three wrapped layers are reachable only through private attributes
(``Provider._durability``, ``ShardedProvider._engine`` and
``ProviderLink._delta``); the wrappers read through them and change
no program state.

Fork-fleet shards run in child processes.  Their wrappers are
installed before the lazy fork, and each shard-side ``handle_batch``
sends its own timing and per-layer deltas back through a pipe the
benchmark creates, never through the program's pipe.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import struct
from time import perf_counter_ns
from typing import Any, Callable, Optional

#: The layers with wrapped public functions (``labels`` has none: its
#: flow cache is read through its own counters).
LAYERS = (
    "gateway", "plans", "capindex", "declassify", "pool", "kernel", "app",
    "db", "resources", "audit", "journal", "durability", "federation",
    "envelopes", "shards",
)

ROOT = "frontdoor"


class LayerTracer:
    """Wrapper bookkeeping: call counts, self time, spans."""

    def __init__(self, keep_requests: int = 2000) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        #: open calls: [child_ns, span_id, name]
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.keep_requests = keep_requests
        self.rid = 0
        self._next_sid = 1
        #: side counters gathered from call arguments and results
        self.extra: dict[str, float] = {}
        self.skipped: list[str] = []
        #: fork fleet: the latest program counters each shard reported
        self.shard_counters: dict[int, dict[str, float]] = {}

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> list:
        sid = self._next_sid
        self._next_sid = sid + 1
        frame = [0, sid, name]
        self.stack.append(frame)
        return frame

    def caller(self) -> str:
        """The wrapped function that called the one now running."""
        return self.stack[-2][2] if len(self.stack) > 1 else ""

    def _exit(self, frame: list, t0: int, t1: int,
              extra_child: int = 0) -> None:
        stack = self.stack
        stack.pop()
        name = frame[2]
        dur = t1 - t0
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = (self.self_ns.get(name, 0) + dur
                              - frame[0] - extra_child)
        parent = 0
        if stack:
            stack[-1][0] += dur
            parent = stack[-1][1]
        if self.rid < self.keep_requests:
            self.spans.append((name, t0, t1, frame[1], parent, self.rid,
                               os.getpid()))

    def root(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one front-door call as the root span."""
        frame = self._enter(ROOT)
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._exit(frame, t0, perf_counter_ns())

    def wrap(self, obj: Any, attr: str, name: str,
             on_call: Optional[Callable[..., None]] = None,
             on_result: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``obj.attr`` with a timing wrapper named ``name``."""
        inner = getattr(obj, attr)
        enter, exit_ = self._enter, self._exit

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = enter(name)
            if on_call is not None:
                on_call(*args, **kwargs)
            t0 = perf_counter_ns()
            try:
                result = inner(*args, **kwargs)
            finally:
                exit_(frame, t0, perf_counter_ns())
            if on_result is not None:
                on_result(result)
            return result

        try:
            setattr(obj, attr, wrapper)
        except (AttributeError, TypeError) as exc:
            self.skipped.append(f"{name}: {exc}")

    def wrap_module(self, module: Any) -> Any:
        """An app module whose handler runs inside an ``app`` span
        (modules are frozen, so the copy is registered instead)."""
        holder = _Holder(module.handler)
        self.wrap(holder, "handler", "app.handler")
        return dataclasses.replace(module, handler=holder.handler)

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "extra": dict(self.extra)}

    def write_chrome_trace(self, path: str) -> None:
        events = []
        for name, t0, t1, sid, parent, rid, pid in self.spans:
            events.append({"name": name, "cat": name.split(".")[0],
                           "ph": "X", "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
                           "pid": pid, "tid": pid,
                           "args": {"span": sid, "parent": parent,
                                    "request": rid}})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ns"}, f)


class _Holder:
    def __init__(self, handler: Callable[..., Any]) -> None:
        self.handler = handler


def diff(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for section, values in after.items():
        base = before.get(section, {})
        out[section] = {k: v - base.get(k, 0) for k, v in values.items()}
    return out


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------

def wrap_provider(tracer: LayerTracer, p: Any) -> None:
    """Wrap every per-provider layer of one live provider."""
    w = tracer.wrap
    for attr in ("authenticate", "admit", "egress", "egress_planned"):
        w(p.gateway, attr, f"gateway.{attr}")
    w(p.plans, "lookup", "plans.lookup")
    w(p, "launch_caps", "capindex.launch_caps")
    w(p.declass, "authority_for", "declassify.authority_for")
    pool = p.kernel.pool
    for attr in ("checkout", "checkout_planned", "release"):
        w(pool, attr, f"pool.{attr}")
    w(p.kernel, "change_label", "kernel.change_label")
    w(p.db, "select", "db.select",
      on_result=lambda rows: tracer.add("db.rows_returned", len(rows)))
    w(p.db, "insert", "db.insert")
    w(p.db, "update", "db.update")
    # rows scanned, read off the db_rows_scanned charges (the default
    # hook's charge_many loops over charge: count those charges once)
    def on_charge(process: Any, kind: str, amount: float) -> None:
        if kind == "db_rows_scanned" \
                and tracer.caller() != "resources.charge_many":
            tracer.add("db.rows_scanned", amount)

    def on_many(process: Any, items: Any) -> None:
        if isinstance(items, (list, tuple)):
            tracer.add("db.rows_scanned", sum(
                n for kind, n in items if kind == "db_rows_scanned"))

    resources = p.kernel.resources
    w(resources, "charge", "resources.charge", on_call=on_charge)
    w(resources, "charge_many", "resources.charge_many", on_call=on_many)
    w(p.kernel.audit, "record", "audit.record")
    w(p.kernel.audit, "record_lazy", "audit.record_lazy")
    manager = p._durability
    if manager is not None:
        journal = manager.journal
        w(journal, "append", "journal.append")
        w(journal, "tail_from", "journal.tail_from",
          on_result=lambda recs: tracer.add("journal.records_tailed",
                                            len(recs or ())))
        w(manager, "emit_snapshot", "durability.emit_snapshot")
        w(manager, "checkpoint", "durability.checkpoint")


def wrap_federation(tracer: LayerTracer, fabric: Any) -> None:
    for link in fabric.links():
        tracer.wrap(link, "sync_user", "federation.sync_user")
        delta = link._delta
        if delta is not None:
            for channel in delta.channels.values():
                tracer.wrap(channel, "transfer_batch",
                            "envelopes.transfer_batch")


# ----------------------------------------------------------------------
# the program's own counters, for ratios and wrapper validation
# ----------------------------------------------------------------------

def provider_counters(p: Any) -> dict[str, float]:
    plans = p.plans.stats()
    cap = p.capindex.stats()
    auth = p.declass.authority_stats()
    pool = p.kernel.pool.stats()
    flow = p.kernel.flow_cache.stats()
    db = p.db.stats()
    audit = p.kernel.audit
    out = {
        "plans.hits": plans["hits"], "plans.misses": plans["misses"],
        "plans.bypasses": plans["bypasses"],
        "capindex.hits": cap["hits"], "capindex.misses": cap["misses"],
        "declassify.hits": auth.get("hits", 0),
        "declassify.misses": auth.get("misses", 0),
        "declassify.bypasses": auth.get("bypasses", 0),
        "pool.reuses": pool["reuses"],
        "pool.fresh_spawns": pool["fresh_spawns"],
        "labels.hits": flow["hit_total"], "labels.misses": flow["miss_total"],
        "db.partitions_visible": db["partitions_visible"],
        "db.partitions_skipped": db["partitions_skipped"],
        "audit.recorded": audit.total_recorded,
        "audit.dropped": audit.dropped,
        "gateway.allowed": p.gateway.exports_allowed,
        "gateway.denied": p.gateway.exports_denied,
    }
    manager = p._durability
    if manager is not None:
        stats = manager.stats()
        out["journal.appends"] = stats["appends"]
        out["journal.bytes_written"] = stats["bytes_written"]
        out["journal.compactions"] = stats["compactions"]
        out["durability.full_snapshots"] = stats["full_snapshots"]
        out["durability.incremental_snapshots"] = \
            stats["incremental_snapshots"]
    return out


def federation_counters(fabric: Any) -> dict[str, float]:
    stats = fabric.federation_stats()
    out = {"envelopes.sent": stats["envelopes_sent"],
           "envelopes.deduped": stats["envelopes_deduped"],
           "envelopes.bytes": stats["bytes_moved"],
           "federation.delta_rounds": 0, "federation.full_recons": 0,
           "federation.fallback_rounds": 0}
    for link in stats["per_link"]:
        for key in ("delta_rounds", "full_recons", "fallback_rounds"):
            out[f"federation.{key}"] += link.get(key, 0)
    return out


def add_counters(total: dict[str, float], more: dict[str, float]) -> None:
    for k, v in more.items():
        total[k] = total.get(k, 0) + v


#: wrapper call counts that must equal a program counter delta:
#: (wrapped functions, counters)
VALIDATIONS = (
    (("plans.lookup",), ("plans.hits", "plans.misses", "plans.bypasses")),
    (("pool.checkout", "pool.checkout_planned"),
     ("pool.reuses", "pool.fresh_spawns")),
    (("journal.append",), ("journal.appends",)),
    (("durability.checkpoint",), ("durability.full_snapshots",)),
    (("durability.emit_snapshot",),
     ("durability.incremental_snapshots", "journal.compactions")),
    (("audit.record", "audit.record_lazy"), ("audit.recorded",)),
    (("capindex.launch_caps",), ("capindex.hits", "capindex.misses")),
    (("gateway.egress", "gateway.egress_planned"),
     ("gateway.allowed", "gateway.denied")),
    (("federation.sync_user",),
     ("federation.delta_rounds", "federation.full_recons",
      "federation.fallback_rounds")),
    (("shards.shard_for",), ("shards.routed",)),
)


def validate(calls: dict[str, int], counters: dict[str, float]
             ) -> list[str]:
    """Mismatches between wrapper call counts and program counters."""
    problems = []
    for wrapped, counted in VALIDATIONS:
        if not any(c in counters for c in counted):
            continue
        seen = sum(calls.get(w, 0) for w in wrapped)
        expect = sum(counters.get(c, 0) for c in counted)
        if seen != expect:
            problems.append(f"{'+'.join(wrapped)} saw {seen} calls, "
                            f"program counted {expect} "
                            f"({'+'.join(counted)})")
    return problems


# ----------------------------------------------------------------------
# fork fleet: the benchmark's own channel out of each shard
# ----------------------------------------------------------------------

_LEN = struct.Struct("<I")
#: Linux pipes buffer 64 KiB; stay well inside it.
MAX_MESSAGE = 32 * 1024


def _read_exact(fd: int, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            raise EOFError("shard trace channel closed")
        buf += chunk
    return buf


class FleetChannel:
    """One pipe per shard, created before the fork.

    The shard-side ``handle_batch`` wrapper writes one message per
    batch: its wall time, the per-function deltas of that batch, the
    pickled response size and the shard's program counters.  The
    router-side ``run_batches`` wrapper reads exactly one message per
    shard it dispatched to, after the responses are back.
    """

    def __init__(self, n_shards: int) -> None:
        self.pipes = [os.pipe() for _ in range(n_shards)]

    def send(self, shard: int, message: dict[str, Any]) -> None:
        """Write one message.  The router reads only after the batch's
        responses are back, so a message must fit the pipe buffer:
        spans are dropped from one that would not."""
        data = pickle.dumps(message)
        if len(data) > MAX_MESSAGE:
            data = pickle.dumps(dict(message, spans=[]))
        os.write(self.pipes[shard][1], _LEN.pack(len(data)) + data)

    def recv(self, shard: int) -> dict[str, Any]:
        fd = self.pipes[shard][0]
        (n,) = _LEN.unpack(_read_exact(fd, _LEN.size))
        return pickle.loads(_read_exact(fd, n))

    def close(self) -> None:
        for r, w in self.pipes:
            os.close(r)
            os.close(w)
        self.pipes = []


def wrap_fleet(tracer: LayerTracer, sp: Any, channel: FleetChannel) -> None:
    """Wrap the router, the engine and every shard, before the fork."""
    for shard_id, shard in enumerate(sp.shards):
        wrap_provider(tracer, shard)
        _wrap_shard_batch(tracer, shard, shard_id, channel)
    tracer.wrap(sp, "shard_for", "shards.shard_for")
    engine = sp._engine
    inner = engine.run_batches

    def run_batches(groups: dict, ctx: Any = None) -> Any:
        frame = tracer._enter("shards.run_batches")
        t0 = perf_counter_ns()
        try:
            result = inner(groups, ctx)
        except BaseException:
            tracer._exit(frame, t0, perf_counter_ns())
            raise
        t1 = perf_counter_ns()
        messages = {s: channel.recv(s) for s in sorted(groups)}
        critical = max(messages.values(), key=lambda m: m["wall_ns"])
        tracer.add("shards.batches", 1)
        tracer.add("shards.hop_ns", (t1 - t0) - critical["wall_ns"])
        tracer.add("shards.pickled_bytes", sum(
            len(pickle.dumps(("batch", reqs, ctx))) + messages[s]["resp_bytes"]
            for s, reqs in groups.items()))
        for s, m in messages.items():
            tracer.add(f"shards.busy_ns.{s}", m["wall_ns"])
            tracer.shard_counters[s] = m["counters"]
            for name, n in m["calls"].items():
                tracer.calls[name] = tracer.calls.get(name, 0) + n
            for key, amount in m["extra"].items():
                tracer.add(key, amount)
            tracer.spans.extend(m["spans"])
        # only the slowest shard's layers are on the blocking path
        for name, ns in critical["self_ns"].items():
            tracer.self_ns[name] = tracer.self_ns.get(name, 0) + ns
        tracer._exit(frame, t0, t1, extra_child=critical["wall_ns"])
        return result

    engine.run_batches = run_batches


def _wrap_shard_batch(tracer: LayerTracer, shard: Any, shard_id: int,
                      channel: FleetChannel, keep_batches: int = 32) -> None:
    """Shard-side ``handle_batch``: time it, then report the batch on
    the benchmark's channel.  Spans are kept for the first
    ``keep_batches`` batches only."""
    inner = shard.handle_batch
    seen = [0]

    def handle_batch(requests: list) -> list:
        seen[0] += 1
        tracer.rid = 0 if seen[0] <= keep_batches else tracer.keep_requests
        tracer.spans.clear()
        before = tracer.snapshot()
        frame = tracer._enter("shards.handle_batch")
        t0 = perf_counter_ns()
        try:
            responses = inner(requests)
        finally:
            t1 = perf_counter_ns()
            tracer._exit(frame, t0, t1)
        delta = diff(tracer.snapshot(), before)
        plain = [(r.status, r.body, r.headers, r.set_cookies)
                 for r in responses]
        channel.send(shard_id, {
            "wall_ns": t1 - t0,
            "calls": {k: v for k, v in delta["calls"].items() if v},
            "self_ns": {k: v for k, v in delta["self_ns"].items() if v},
            "extra": {k: v for k, v in delta["extra"].items() if v},
            "resp_bytes": len(pickle.dumps(plain)),
            "counters": provider_counters(shard),
            "spans": list(tracer.spans),
        })
        return responses

    shard.handle_batch = handle_batch
