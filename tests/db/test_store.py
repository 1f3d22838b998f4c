"""Unit tests for the labeled tuple store."""

import pytest

from repro.db import (DbView, LabeledStore, NoSuchRow, NoSuchTable,
                      SchemaError, TableExists)
from repro.core.journal import Journal
from repro.kernel import Kernel
from repro.labels import (CapabilitySet, IntegrityViolation, Label,
                          SecrecyViolation, WriteIntegrityViolation, minus,
                          plus)
from repro.platform import (Provider, ProviderConfig, recover_provider,
                            snapshot_provider)


@pytest.fixture()
def kernel():
    return Kernel()


@pytest.fixture()
def store(kernel):
    return LabeledStore(kernel)


@pytest.fixture()
def provider(kernel):
    return kernel.spawn_trusted("provider")


class TestCatalog:
    def test_create_and_list(self, store, provider):
        store.create_table(provider, "photos")
        store.create_table(provider, "blogs")
        assert store.tables() == ["blogs", "photos"]

    def test_duplicate_table(self, store, provider):
        store.create_table(provider, "t")
        with pytest.raises(TableExists):
            store.create_table(provider, "t")

    def test_missing_table(self, store, provider):
        with pytest.raises(NoSuchTable):
            store.select(provider, "nope")

    def test_drop_table(self, store, provider):
        store.create_table(provider, "t")
        store.insert(provider, "t", {"a": 1})
        store.drop_table(provider, "t")
        assert "t" not in store.tables()

    def test_drop_table_needs_write_on_rows(self, store, kernel, provider):
        w = kernel.create_tag(provider, kind="integrity", purpose="w")
        store.create_table(provider, "t")
        store.insert(provider, "t", {"a": 1}, ilabel=Label([w]))
        intruder = kernel.spawn_trusted("intruder")
        with pytest.raises(IntegrityViolation):
            store.drop_table(intruder, "t")


class TestCrud:
    def test_insert_select(self, store, provider):
        store.create_table(provider, "t")
        store.insert(provider, "t", {"user": "bob", "n": 1})
        store.insert(provider, "t", {"user": "amy", "n": 2})
        rows = store.select(provider, "t", where={"user": "bob"})
        assert len(rows) == 1 and rows[0]["n"] == 1

    def test_select_returns_copies(self, store, provider):
        store.create_table(provider, "t")
        rid = store.insert(provider, "t", {"n": 1})
        rows = store.select(provider, "t")
        rows[0]["n"] = 999
        assert store.get(provider, "t", rid)["n"] == 1

    def test_predicate_select(self, store, provider):
        store.create_table(provider, "t")
        for i in range(10):
            store.insert(provider, "t", {"n": i})
        rows = store.select(provider, "t", predicate=lambda r: r["n"] % 2 == 0)
        assert len(rows) == 5

    def test_limit(self, store, provider):
        store.create_table(provider, "t")
        for i in range(10):
            store.insert(provider, "t", {"n": i})
        assert len(store.select(provider, "t", limit=3)) == 3

    def test_update(self, store, provider):
        store.create_table(provider, "t")
        store.insert(provider, "t", {"user": "bob", "n": 1})
        changed = store.update(provider, "t", where={"user": "bob"},
                               changes={"n": 42})
        assert changed == 1
        assert store.select(provider, "t")[0]["n"] == 42

    def test_update_requires_changes(self, store, provider):
        store.create_table(provider, "t")
        with pytest.raises(SchemaError):
            store.update(provider, "t", where={})

    def test_delete(self, store, provider):
        store.create_table(provider, "t")
        for i in range(4):
            store.insert(provider, "t", {"n": i})
        deleted = store.delete(provider, "t", predicate=lambda r: r["n"] >= 2)
        assert deleted == 2
        assert store.count(provider, "t") == 2

    def test_get_missing_row(self, store, provider):
        store.create_table(provider, "t")
        with pytest.raises(NoSuchRow):
            store.get(provider, "t", 12345)

    def test_insert_non_dict_rejected(self, store, provider):
        store.create_table(provider, "t")
        with pytest.raises(SchemaError):
            store.insert(provider, "t", ["not", "a", "dict"])


class TestIndexes:
    def test_index_used_and_consistent(self, store, provider):
        store.create_table(provider, "t", indexes=["user"])
        for i in range(100):
            store.insert(provider, "t", {"user": f"u{i % 10}", "n": i})
        rows = store.select(provider, "t", where={"user": "u3"})
        assert len(rows) == 10
        assert all(r["user"] == "u3" for r in rows)

    def test_index_tracks_updates(self, store, provider):
        store.create_table(provider, "t", indexes=["user"])
        store.insert(provider, "t", {"user": "bob"})
        store.update(provider, "t", where={"user": "bob"},
                     changes={"user": "robert"})
        assert store.select(provider, "t", where={"user": "bob"}) == []
        assert len(store.select(provider, "t", where={"user": "robert"})) == 1

    def test_index_tracks_deletes(self, store, provider):
        store.create_table(provider, "t", indexes=["user"])
        store.insert(provider, "t", {"user": "bob"})
        store.delete(provider, "t", where={"user": "bob"})
        assert store.select(provider, "t", where={"user": "bob"}) == []


class TestLabelFiltering:
    """The covert-channel-free semantics: invisible rows are as if absent."""

    def _mixed_table(self, store, kernel, provider):
        t = kernel.create_tag(provider, purpose="bob")
        store.create_table(provider, "profiles")
        store.insert(provider, "profiles", {"user": "pub", "x": 1})
        bob_writer = kernel.spawn_trusted("bobw", slabel=Label([t]))
        store.insert(bob_writer, "profiles", {"user": "bob", "x": 2})
        return t

    def test_select_filters_silently(self, store, kernel, provider):
        self._mixed_table(store, kernel, provider)
        snoop = kernel.spawn_trusted("snoop")
        rows = store.select(snoop, "profiles")
        assert [r["user"] for r in rows] == ["pub"]

    def test_count_matches_filtered_select(self, store, kernel, provider):
        self._mixed_table(store, kernel, provider)
        snoop = kernel.spawn_trusted("snoop")
        assert store.count(snoop, "profiles") == 1

    def test_cleared_process_sees_all(self, store, kernel, provider):
        t = self._mixed_table(store, kernel, provider)
        cleared = kernel.spawn_trusted("cleared", slabel=Label([t]))
        assert store.count(cleared, "profiles") == 2

    def test_get_invisible_row_reads_as_missing(self, store, kernel, provider):
        t = kernel.create_tag(provider, purpose="bob")
        store.create_table(provider, "t")
        writer = kernel.spawn_trusted("w", slabel=Label([t]))
        rid = store.insert(writer, "t", {"secret": True})
        snoop = kernel.spawn_trusted("snoop")
        with pytest.raises(NoSuchRow):
            store.get(snoop, "t", rid)

    def test_failstop_variant_raises_on_invisible(self, store, kernel, provider):
        self._mixed_table(store, kernel, provider)
        snoop = kernel.spawn_trusted("snoop")
        with pytest.raises(SecrecyViolation):
            store.select_failstop(snoop, "profiles")

    def test_update_skips_invisible_rows(self, store, kernel, provider):
        self._mixed_table(store, kernel, provider)
        snoop = kernel.spawn_trusted("snoop")
        changed = store.update(snoop, "profiles", changes={"x": 0})
        assert changed == 1  # only the public row

    def test_delete_skips_invisible_rows(self, store, kernel, provider):
        t = self._mixed_table(store, kernel, provider)
        snoop = kernel.spawn_trusted("snoop")
        store.delete(snoop, "profiles")
        cleared = kernel.spawn_trusted("c", slabel=Label([t]))
        assert store.count(cleared, "profiles") == 1  # bob's row survives


class TestWriteRules:
    def test_tainted_cannot_insert_clean_row(self, store, kernel, provider):
        t = kernel.create_tag(provider, purpose="s")
        store.create_table(provider, "t")
        tainted = kernel.spawn_trusted("app", slabel=Label([t]))
        with pytest.raises(SecrecyViolation):
            store.insert(tainted, "t", {"leak": 1}, slabel=Label.EMPTY)

    def test_tainted_insert_defaults_to_tainted_row(self, store, kernel, provider):
        t = kernel.create_tag(provider, purpose="s")
        store.create_table(provider, "t")
        tainted = kernel.spawn_trusted("app", slabel=Label([t]))
        store.insert(tainted, "t", {"v": 1})
        snoop = kernel.spawn_trusted("snoop")
        assert store.count(snoop, "t") == 0

    def test_write_protected_row(self, store, kernel, provider):
        w = kernel.create_tag(provider, kind="integrity", purpose="bob-w")
        store.create_table(provider, "t")
        owner = kernel.spawn_trusted("owner", caps=CapabilitySet([plus(w)]))
        store.insert(owner, "t", {"v": "orig"}, ilabel=Label([w]))
        vandal = kernel.spawn_trusted("vandal")
        with pytest.raises(IntegrityViolation):
            store.update(vandal, "t", changes={"v": "defaced"})
        with pytest.raises(IntegrityViolation):
            store.delete(vandal, "t")
        assert store.select(provider, "t")[0]["v"] == "orig"

    def test_delegated_writer_updates_protected_row(self, store, kernel, provider):
        w = kernel.create_tag(provider, kind="integrity", purpose="bob-w")
        store.create_table(provider, "t")
        owner = kernel.spawn_trusted("owner", caps=CapabilitySet([plus(w)]))
        store.insert(owner, "t", {"v": "orig"}, ilabel=Label([w]))
        editor = kernel.spawn_trusted("editor", caps=CapabilitySet([plus(w)]))
        assert store.update(editor, "t", changes={"v": "edited"}) == 1


class TestUpdateIsAllOrNothing:
    """A refused row anywhere in an update's matches leaves every row,
    the dirty set and the journal as they were, on both engines."""

    @pytest.mark.parametrize("partitioned", [True, False])
    def test_refused_row_undoes_nothing_it_follows(self, partitioned):
        p = Provider(name="prod", config=ProviderConfig(
            partitioned_store=partitioned))
        kernel = p.kernel
        admin = kernel.spawn_trusted("admin")
        w = kernel.create_tag(admin, kind="integrity", purpose="w")
        owner = kernel.spawn_trusted("owner", caps=CapabilitySet([plus(w)]))
        p.db.create_table(owner, "t")
        p.db.insert(owner, "t", {"v": "orig"})
        p.db.insert(owner, "t", {"v": "orig"}, ilabel=Label([w]))
        manager = p._durability
        manager.checkpoint()
        base = manager.base
        vandal = kernel.spawn_trusted("vandal")
        with pytest.raises(WriteIntegrityViolation):
            p.db.update(vandal, "t", changes={"v": "defaced"})
        assert [r["v"] for r in p.db.select(admin, "t")] == ["orig", "orig"]
        records, __ = Journal.recover(manager.journal.raw_bytes())
        assert "db.update" not in [r.op for r in records]
        recovered, __ = recover_provider(base, manager.journal.raw_bytes())
        assert snapshot_provider(recovered) == snapshot_provider(p)


class TestDbView:
    def test_view_roundtrip(self, store, kernel, provider):
        view = DbView(store, provider)
        view.create_table("t", indexes=["k"])
        rid = view.insert("t", {"k": "a", "v": 1})
        assert view.get("t", rid)["v"] == 1
        assert view.count("t", where={"k": "a"}) == 1
        view.update("t", where={"k": "a"}, changes={"v": 2})
        assert view.select("t")[0]["v"] == 2
        view.delete("t", where={"k": "a"})
        assert view.count("t") == 0
