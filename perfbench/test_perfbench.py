"""Self-tests of the benchmark: the checker catches planted faults and
the generator is a pure function of the seed.

Run with ``python3 perfbench/test_perfbench.py`` (or pytest on this
file) from the root of a checkout.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from check import Checker  # noqa: E402
from workloads import WORKLOADS, ReadLabeled, _request  # noqa: E402
from world import stream_digest  # noqa: E402

with open(os.path.join(HERE, "spec.json")) as _f:
    SPEC = json.load(_f)


def _small_read_run(n_ops: int = 400) -> tuple:
    """A 24-user read_labeled deployment, its ops and real responses."""
    spec = dict(SPEC["workloads"]["read_labeled"], users=24)
    workload = ReadLabeled(spec, seed=5)
    provider, tokens = workload.build(None)
    ops = []
    for op in workload.stream():
        ops.append(op)
        if len(ops) == n_ops:
            break
    responses = [provider.handle_request(
        _request(op.path, op.params, tokens[op.viewer])) for op in ops]
    return workload, ops, responses


def test_checker_counts_each_planted_fault() -> None:
    workload, ops, responses = _small_read_run()
    clean = Checker(workload.world.owner_of)
    for op, response in zip(ops, responses):
        clean.check(op, response)
    assert clean.failed == 0, clean.summary()

    kinds = {op.kind for op in ops}
    assert {"own", "friend", "stranger", "feed"} <= kinds
    planted = [copy.copy(r) for r in responses]
    # 1. a leaked canary: a stranger's private body rides out on a 403
    deny = next(i for i, op in enumerate(ops) if op.kind == "stranger")
    victim = ops[deny].params["author"]
    planted[deny].body = {"error": "not authorized",
                          "debug": workload.world.bodies[
                              (victim, workload.world.titles[victim][0])]}
    # 2. a flipped status: an allowed own read answered 403
    flip = next(i for i, op in enumerate(ops) if op.kind == "own")
    planted[flip].status = 403
    # 3. a dropped response
    drop = next(i for i, op in enumerate(ops) if op.kind == "feed")
    planted[drop] = None

    checker = Checker(workload.world.owner_of)
    for op, response in zip(ops, planted):
        checker.check(op, response)
    assert checker.reasons.get("canary_leak") == 1, checker.summary()
    assert checker.reasons.get("status") == 1, checker.summary()
    assert checker.reasons.get("missing") == 1, checker.summary()
    assert checker.failed == 3 and checker.attempted == len(ops)


def test_checker_flags_allow_where_deny_is_due() -> None:
    workload, ops, responses = _small_read_run(200)
    deny = next(i for i, op in enumerate(ops) if op.kind == "stranger")
    author = ops[deny].params["author"]
    title = ops[deny].params["title"]
    forged = copy.copy(responses[deny])
    forged.status = 200
    forged.body = {"author": author, "title": title,
                   "body": workload.world.bodies[(author, title)]}
    checker = Checker(workload.world.owner_of)
    assert not checker.check(ops[deny], forged)
    assert checker.reasons == {"canary_leak": 1, "status": 1}


def test_checker_flags_an_edit_that_touched_several_rows() -> None:
    spec = SPEC["workloads"]["write_federated"]
    workload = WORKLOADS["write_federated"](spec, seed=5)
    edit = next(op for op in workload.stream() if op.kind == "edit")
    checker = Checker(workload.world.owner_of)
    assert checker.check(edit, _Response(200, {"edited": 1}))
    assert not checker.check(edit, _Response(200, {"edited": 2}))
    assert checker.reasons == {"body": 1}


def test_model_follows_the_append_only_row_mirror() -> None:
    spec = SPEC["workloads"]["write_federated"]
    workload = WORKLOADS["write_federated"](spec, seed=5)
    stream = workload.stream()
    model, world = workload.model, workload.world
    user = world.users[0]
    post = (user, world.titles[user][0])
    seed_body = world.bodies[post]
    # an edit at home since the last pass: each side gains the other's
    model.home_rows[post] = ["edited"]
    model.dirty.add(post)
    model._sync()
    assert sorted(model.home_rows[post]) == sorted(["edited", seed_body])
    assert sorted(model.mirror_rows[post]) == sorted(["edited", seed_body])
    # so the next edit of a synced post touches both rows at home
    edit = next(op for op in stream
                if op.kind == "edit" and op.body != {"edited": 1})
    checker = Checker(world.owner_of)
    assert checker.check(edit, _Response(200, edit.body))
    assert not checker.check(edit, _Response(200, {"edited": 1}))


class _Response:
    def __init__(self, status: int, body: dict) -> None:
        self.status = status
        self.body = body


def test_same_seed_same_stream_digest() -> None:
    n = SPEC["digest_ops"]
    for name, cls in WORKLOADS.items():
        spec = SPEC["workloads"][name]
        a = stream_digest(cls(spec, seed=3).stream(), n)
        b = stream_digest(cls(spec, seed=3).stream(), n)
        c = stream_digest(cls(spec, seed=4).stream(), n)
        assert a == b, name
        assert a != c, name


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
