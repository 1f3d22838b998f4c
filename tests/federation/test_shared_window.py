"""The delta engine's shared tail window: cost and hostile input.

Every linked user on a link tails the same two journals, and the delta
engine decodes each record once per link side for all of them.  These
tests pin what that sharing must not change: a ``sync_all`` pass
decodes no record twice, and a decoded record — forged or not — is
only a pointer into live state, so it can neither carry another
user's data across the link nor change what a linked user's mirror
receives.
"""

from repro.core.journal import Journal
from repro.federation import FederationConfig
from repro.federation.peering import _snapshot
from repro.platform import snapshot_provider

from .test_delta_differential import build_fabric, row_state, with_agent


class TestOneDecodePerLinkSide:
    def test_sync_all_decodes_each_record_at_most_once(self, monkeypatch):
        users = [f"user{i:02d}" for i in range(24)]
        fabric = build_fabric(FederationConfig.delta(), users)
        for user in users:
            fabric.store_user_data(user, "first", "1")
        fabric.sync_all()  # full reconciliations mint the cursors
        fabric.sync_all()
        for user in users:
            fabric.store_user_data(user, "second", "2")
        link = fabric.links()[0]
        journals = {"a": link.a._durability.journal,
                    "b": link.b._durability.journal}
        lag = link.federation_stats()["cursor_lag"]
        seq_before = {side: j.seq for side, j in journals.items()}
        decoded = 0
        tail_from = Journal.tail_from

        def counting(journal, cursor):
            nonlocal decoded
            records = tail_from(journal, cursor)
            decoded += len(records or ())
            return records

        monkeypatch.setattr(Journal, "tail_from", counting)
        moved = fabric.sync_all()
        # the records the pass must consume: from the oldest cursor on
        # each side through everything the pass itself appended
        need = sum(max(lag[user][side] for user in users)
                   + journals[side].seq - seq_before[side]
                   for side in journals)
        assert moved == len(users)
        assert 0 < decoded <= need


SECRET = "eve's diary, never federated"


def hostile_world(forge):
    """eve lives on provider 0 (side A) only; amy and bob are homed on
    provider 1 and mirrored onto provider 0.  With ``forge``, records
    naming eve's data are appended straight to side A's journal."""
    fabric = build_fabric(FederationConfig.delta(), ("amy", "bob"))
    assert fabric.signup("eve", "pw") == 0
    a, b = fabric.providers
    fabric.sync_all()
    fabric.sync_all()

    def eve_rows(agent):
        a.db.create_table(agent, "posts")
        return [a.db.insert(agent, "posts", {"body": body})
                for body in (SECRET, "hello")]

    secret_row, hello_row = with_agent(a, eve_rows, "eve")
    a.store_user_data("eve", "diary", SECRET)
    if forge:
        journal = a._durability.journal
        bob_tag = a.account("bob").data_tag.tag_id
        journal.append("db.insert", {
            "table": "posts", "row_id": hello_row,
            "values": {"body": "hello"}, "slabel": [bob_tag],
            "ilabel": []})
        journal.append("db.update", {
            "table": "posts", "rows": [secret_row, hello_row],
            "changes": {"body": SECRET}})
        journal.append("fs.write", {"path": "/users/eve/diary",
                                    "data": SECRET})
        journal.append("fs.write", {"path": "/etc/motd", "data": SECRET})

    # bob's own row on B matches eve's "hello" by content: the naive
    # twin ships it to A, because eve's row is invisible to bob there
    def bob_row(agent):
        b.db.create_table(agent, "posts")
        b.db.insert(agent, "posts", {"body": "hello"})

    with_agent(b, bob_row, "bob")
    fabric.store_user_data("bob", "page", "bob's page")
    fabric.store_user_data("amy", "note", "amy's note")
    moved = [fabric.sync_all(), fabric.sync_all()]
    return fabric, moved


class TestForgedRecordsAreOnlyPointers:
    def test_forged_records_move_nothing_of_eve_and_change_no_mirror(self):
        forged, forged_moved = hostile_world(forge=True)
        clean, clean_moved = hostile_world(forge=False)
        b = forged.providers[1]
        assert SECRET not in repr(snapshot_provider(b))
        assert forged_moved == clean_moved
        for index in (0, 1):
            for user in ("amy", "bob"):
                assert _snapshot(forged.providers[index], user) == \
                    _snapshot(clean.providers[index], user)
            assert row_state(forged.providers[index], ("amy", "bob")) == \
                row_state(clean.providers[index], ("amy", "bob"))
