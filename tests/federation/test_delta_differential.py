"""Differential proof: delta sync ≡ the naive content reconciler.

Two isolated worlds run the *same* random schedule of file edits,
deletions, row inserts/updates/deletes, checkpoints (which reset the
journal and force the delta engine's cursors stale) and sync points —
one world on ``FederationConfig.naive()``, one on the default
journal-cursor delta engine.  After the schedule the worlds must be
indistinguishable: identical file bytes, identical row multisets with
identical (symbolic) label protection on both providers, and the same
per-sync transfer counts.  This is the M15 acceptance criterion: the
optimization changes *how* dirty state is found, never *what* moves
or how the mirror is protected (C6).

The multi-user schedule links three users on one fabric link and syncs
them one at a time in a random order, so their cursors lag each other
and the delta engine's shared tail window is trimmed past some of them
while others still need older records; crash and recovery replace a
provider (and its journal) mid-schedule.
"""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.federation import FederationConfig, FederationFabric, ProviderLink
from repro.federation import delta
from repro.federation.peering import _row_key, _snapshot
from repro.fs import FsView
from repro.labels import Label, SecrecyViolation
from repro.platform import Provider


def build_world(config):
    a = Provider(name="A")
    b = Provider(name="B")
    for p in (a, b):
        p.signup("bob", "pw")
        p.signup("eve", "pw")
    link = ProviderLink(a, b, config=config)
    link.link_account("bob")
    link.grant_sync("bob")
    return a, b, link


def with_agent(provider, fn, user="bob"):
    agent = provider._user_agent(provider.account(user))
    try:
        return fn(agent)
    finally:
        provider.kernel.exit(agent)


def apply_op(provider, op, slot, content, user="bob"):
    def run(agent):
        fs = FsView(provider.fs, agent)
        path = f"/users/{user}/f{slot}"
        if op == "file":
            if fs.exists(path):
                fs.write(path, f"c{content}")
            else:
                fs.create(path, f"c{content}")
        elif op == "fdel":
            if fs.exists(path):
                fs.delete(path)
        else:
            if "posts" not in provider.db.tables():
                provider.db.create_table(agent, "posts")
            if op == "row":
                provider.db.insert(agent, "posts",
                                   {"slot": slot, "content": content})
            elif op == "rupd":
                provider.db.update(agent, "posts", where={"slot": slot},
                                   changes={"content": content})
            elif op == "rdel":
                provider.db.delete(agent, "posts", where={"slot": slot})
    with_agent(provider, run, user)


def row_state(provider, users=("bob",)):
    """Multiset of (table, content key, symbolic labels) over every
    row on the provider — label-faithful, provider-relative."""
    symbols = {}
    for user in users:
        account = provider.account(user)
        symbols[account.data_tag] = f"{user}.data"
        symbols[account.write_tag] = f"{user}.write"
    def symbol(tag):
        return symbols.get(tag) or f"other:{tag.purpose}"
    state: Counter = Counter()
    for table_name in sorted(provider.db.tables()):
        table = provider.db.table(table_name)
        for row in table.rows.values():
            state[(table_name, _row_key(row.values),
                   tuple(sorted(symbol(t) for t in row.slabel)),
                   tuple(sorted(symbol(t) for t in row.ilabel)))] += 1
    return state


#: (op, side, file/row slot, content id, sync-after?)
ops = st.lists(
    st.tuples(
        st.sampled_from(["file", "file", "file", "fdel", "row", "row",
                         "rupd", "rdel", "ckpt"]),
        st.sampled_from(["A", "B"]),
        st.integers(0, 3),
        st.integers(0, 5),
        st.booleans()),
    max_size=18)


class TestDeltaNaiveEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops)
    def test_worlds_are_indistinguishable(self, schedule):
        worlds = {
            "naive": build_world(FederationConfig.naive()),
            "delta": build_world(FederationConfig.delta()),
        }
        moved: dict[str, list[int]] = {"naive": [], "delta": []}
        for op, side, slot, content, sync_after in schedule:
            for name, (a, b, link) in worlds.items():
                provider = a if side == "A" else b
                if op == "ckpt":
                    if provider._durability is not None:
                        provider._durability.checkpoint()
                else:
                    apply_op(provider, op, slot, content)
                if sync_after:
                    moved[name].append(link.sync_user("bob"))
        for name, (a, b, link) in worlds.items():
            moved[name].append(link.sync_user("bob"))
        # identical transfer counts at every sync point
        assert moved["delta"] == moved["naive"]
        # identical file bytes on each provider
        for index in (0, 1):
            assert _snapshot(worlds["delta"][index], "bob") == \
                _snapshot(worlds["naive"][index], "bob")
        # identical rows under identical label protection (C6)
        for index in (0, 1):
            assert row_state(worlds["delta"][index]) == \
                row_state(worlds["naive"][index])

    @settings(max_examples=25, deadline=None)
    @given(ops)
    def test_delta_fixpoint_is_quiet(self, schedule):
        a, b, link = build_world(FederationConfig.delta())
        for op, side, slot, content, __ in schedule:
            provider = a if side == "A" else b
            if op == "ckpt":
                provider._durability.checkpoint()
            else:
                apply_op(provider, op, slot, content)
        link.sync_user("bob")
        assert link.sync_user("bob") == 0
        assert link.sync_user("bob") == 0

    @settings(max_examples=20, deadline=None)
    @given(ops)
    def test_mirror_stays_protected_under_delta(self, schedule):
        """C6 on the delta path: whatever the schedule did, eve can
        never read bob's mirrored files on either provider."""
        a, b, link = build_world(FederationConfig.delta())
        for op, side, slot, content, __ in schedule:
            provider = a if side == "A" else b
            if op == "ckpt":
                provider._durability.checkpoint()
            else:
                apply_op(provider, op, slot, content)
        link.sync_user("bob")
        for provider in (a, b):
            names = _snapshot(provider, "bob")
            snoop = provider.kernel.spawn_trusted("eve-snoop")
            fs = FsView(provider.fs, snoop)
            for name in names:
                with pytest.raises(SecrecyViolation):
                    fs.read(f"/users/bob/{name}")
            provider.kernel.exit(snoop)


USERS = ("amy", "bob", "cat")

#: (op, provider index, user, file/row slot, content id, user to sync
#: afterwards or None); "crash" takes the provider down, or recovers
#: it from its base snapshot and journal when it is already down.
multi_ops = st.lists(
    st.tuples(
        st.sampled_from(["file", "file", "fdel", "row", "row", "rupd",
                         "rdel", "ckpt", "crash"]),
        st.sampled_from([0, 1]),
        st.sampled_from(USERS),
        st.integers(0, 2),
        st.integers(0, 5),
        st.one_of(st.none(), st.sampled_from(USERS))),
    max_size=30)


def build_fabric(config, users=USERS):
    fabric = FederationFabric(2, federation=config)
    for user in users:
        home = fabric.signup(user, "pw")
        fabric.mirror(user, 1 - home)
    return fabric


#: amy's edit on provider 1 waits behind her cursor while bob's rounds
#: grow side b's window past a trim; her next round must still see it.
TRIMMED_PAST_AMY = (
    [("file", 0, user, 0, 1, user) for user in USERS]
    + [("file", 1, "amy", 1, 2, None)]
    + [("file", 0, "bob", i, i, "bob") for i in (1, 2)]
    + [("row", 1, "bob", i, i, "bob") for i in (0, 1, 2)]
    + [("fdel", 1, "cat", 2, 0, "amy")])


class TestMultiUserDeltaNaiveEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(multi_ops, st.sampled_from([1, 3, delta._TRIM_FLOOR]))
    @example(TRIMMED_PAST_AMY, 1)
    def test_worlds_are_indistinguishable(self, schedule, trim_floor):
        worlds = {"naive": build_fabric(FederationConfig.naive()),
                  "delta": build_fabric(FederationConfig.delta())}
        moved: dict[str, list[int]] = {"naive": [], "delta": []}
        with mock.patch.object(delta, "_TRIM_FLOOR", trim_floor):
            for op, index, user, slot, content, sync in schedule:
                for name, fabric in worlds.items():
                    provider = fabric.providers[index]
                    if op == "crash":
                        if provider is None:
                            fabric.recover(index)
                        else:
                            fabric.crash(index)
                    elif provider is not None:
                        if op == "ckpt":
                            provider._durability.checkpoint()
                        else:
                            apply_op(provider, op, slot, content, user)
                    if sync is not None:
                        moved[name].append(fabric.sync_user(sync))
            for name, fabric in worlds.items():
                for index, provider in enumerate(fabric.providers):
                    if provider is None:
                        fabric.recover(index)
                for user in USERS:
                    moved[name].append(fabric.sync_user(user))
        assert moved["delta"] == moved["naive"]
        for index in (0, 1):
            naive = worlds["naive"].providers[index]
            delta_side = worlds["delta"].providers[index]
            for user in USERS:
                assert _snapshot(delta_side, user) == _snapshot(naive, user)
            assert row_state(delta_side, USERS) == row_state(naive, USERS)
