"""The redesigned Provider configuration API.

ProviderConfig presets, config threading through W5System and
persistence restore, the unified ``Metrics.attach``, and
``Provider.explain`` / the ``plan`` CLI renderer.
"""

import json

import pytest

from repro.core import Metrics, W5System
from repro.platform import (Provider, ProviderConfig, restore_provider,
                            snapshot_provider)


class TestProviderConfig:
    def test_default_mirrors_historical_defaults(self):
        """The default is the production plane: ``fast()``, plans on."""
        config = ProviderConfig()
        assert config == ProviderConfig.fast()
        assert config.fast_request_plane
        assert config.recycle_processes
        assert config.partitioned_store
        assert config.incremental_persistence
        assert config.journal_compact_bytes == 1 << 20
        assert config.request_plans
        assert Provider().plans.enabled
        assert W5System().provider.plans.enabled

    def test_fast_preset_enables_plans(self):
        assert ProviderConfig.fast().request_plans
        assert ProviderConfig.fast(partitioned_store=False).request_plans

    def test_naive_preset_disables_everything(self):
        config = ProviderConfig.naive()
        assert not config.fast_request_plane
        assert not config.recycle_processes
        assert not config.partitioned_store
        assert not config.incremental_persistence
        assert not config.request_plans

    def test_two_presets(self):
        presets = sorted(name for name, attr in vars(ProviderConfig).items()
                         if isinstance(attr, classmethod))
        assert presets == ["fast", "naive"]

    def test_frozen_with_replace(self):
        config = ProviderConfig()
        with pytest.raises(Exception):
            config.request_plans = False
        assert not config.replace(request_plans=False).request_plans
        assert config == ProviderConfig.fast()

    def test_describe_round_trips_json(self):
        desc = ProviderConfig.fast().describe()
        assert json.loads(json.dumps(desc)) == desc

    def test_config_threads_through_provider(self):
        p = Provider(name="x", config=ProviderConfig.naive())
        assert p.config == ProviderConfig.naive()
        assert not p.kernel.pool.enabled
        assert not p.db.partitioned
        assert not p.plans.enabled
        assert p._durability is None

    def test_config_threads_through_system(self):
        w5 = W5System(name="x", config=ProviderConfig.fast())
        assert w5.provider.config.request_plans
        assert w5.provider.plans.enabled

    def test_config_threads_through_restore(self):
        p = Provider(name="x", config=ProviderConfig.fast())
        p.signup("amy", "pw")
        restored, __ = restore_provider(snapshot_provider(p),
                                        config=ProviderConfig.fast())
        assert restored.config.request_plans
        assert restored.plans.enabled


class TestMetricsAttach:
    def test_attach_covers_every_plane(self):
        w5 = W5System(name="x", config=ProviderConfig.fast())
        w5.add_user("amy", apps=("blog",))
        metrics = Metrics(w5.audit()).attach(w5.provider)
        w5.client("amy").get("/app/blog/post", title="t", body="b")
        w5.client("amy").get("/app/blog/list", author="amy")
        assert metrics.cache_snapshot() != {}
        request_plane = metrics.request_plane_snapshot()
        assert request_plane["plans"]["enabled"]
        assert request_plane["plans"]["misses"] >= 1
        assert request_plane["pool"]["enabled"]
        assert metrics.data_plane_snapshot()["db"]["partitioned"]
        assert metrics.persistence_snapshot()["incremental_persistence"]
        assert metrics.gateway_snapshot()["exports_allowed"] >= 2

    def test_old_attach_methods_still_compose(self):
        w5 = W5System(name="x")
        metrics = (Metrics(w5.audit())
                   .attach_request_plane(w5.provider)
                   .attach_gateway(w5.provider.gateway))
        assert "plans" in metrics.request_plane_snapshot()
        assert metrics.gateway_snapshot() == {
            "exports_allowed": 0, "exports_denied": 0, "rate_limited": 0}


class TestExplain:
    def test_explain_renders_whether_or_not_enabled(self):
        for config in (ProviderConfig(request_plans=False), ProviderConfig()):
            w5 = W5System(name="x", config=config)
            w5.add_user("amy", apps=("blog",))
            desc = w5.provider.explain("blog", "amy")
            assert desc["planned"]
            assert desc["dispatch_enabled"] == config.request_plans
            assert desc["app"]["name"] == "blog"
            assert desc["config"] == config.describe()
            assert json.loads(json.dumps(desc)) == desc

    def test_explain_reports_bypass(self):
        w5 = W5System(name="x", config=ProviderConfig.fast())
        w5.add_user("amy", apps=("blog",))
        w5.provider.set_integrity_policy("amy", require_endorsed=True)
        desc = w5.provider.explain("blog", "amy")
        assert not desc["planned"]
        assert "reason" in desc

    def test_plan_cli_renders(self, tmp_path, capsys):
        from repro.analysis.plancmd import run

        w5 = W5System(name="x", config=ProviderConfig.fast())
        w5.add_user("amy", apps=("blog",))
        w5.client("amy").get("/app/blog/list", author="amy")
        path = tmp_path / "explain.json"
        path.write_text(json.dumps(w5.provider.explain("blog", "amy")))
        assert run([str(path)]) == 0
        out = capsys.readouterr().out
        assert "# Request plan" in out
        assert "app:blog" in out
        assert "epoch" in out.lower()
