"""The W5 system facade: one object that assembles the whole platform.

Most library users want "a W5 with the standard apps and a few users",
not twelve constructor calls.  :class:`W5System` wires a provider with
resource policing, installs the catalogs, and offers the high-level
verbs the examples and benchmarks are written in.  Everything it does
is also reachable through the underlying objects — this is sugar, not
a second security layer.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..apps import install_adversarial_apps, install_standard_apps
from ..declassify import Declassifier
from ..net import ExternalClient
from ..platform import Provider, ProviderConfig
from ..resources import ResourceManager
from ..search import DependencyGraph, coderank, top_k
from ..workloads import SocialWorld


class W5System:
    """A ready-to-use W5 deployment (single provider).

    Performance/durability switches arrive as one
    :class:`~repro.platform.config.ProviderConfig` (``config=``).
    """

    def __init__(self, name: str = "w5",
                 quotas: Optional[Mapping[str, float]] = None,
                 quota_overrides: Optional[Mapping[str, Mapping[str, float]]]
                 = None,
                 with_adversaries: bool = False,
                 js_policy: str = "block",
                 audit_max_events: Optional[int] = None,
                 tracing: bool = False,
                 config: Optional[ProviderConfig] = None) -> None:
        if config is None:
            config = ProviderConfig()
        if config.shards > 1:
            # M13: N full provider shards behind one router.  Each
            # shard polices its own resources (shards share nothing);
            # `self.resources` aliases shard 0's manager for
            # introspection compatibility.
            from ..platform.shards import ShardedProvider
            self.provider = ShardedProvider(
                name=name, n_shards=config.shards, config=config,
                engine=config.shard_engine, js_policy=js_policy,
                audit_max_events=audit_max_events, tracing=tracing,
                resources_factory=lambda: ResourceManager(
                    default_quotas=quotas, overrides=quota_overrides,
                    fast=config.batched_charges))
            self.resources = self.provider.shards[0].kernel.resources
        else:
            self.resources = ResourceManager(default_quotas=quotas,
                                             overrides=quota_overrides,
                                             fast=config.batched_charges)
            self.provider = Provider(name=name, resources=self.resources,
                                     js_policy=js_policy,
                                     config=config,
                                     audit_max_events=audit_max_events,
                                     tracing=tracing)
        install_standard_apps(self.provider)
        if with_adversaries:
            install_adversarial_apps(self.provider)
        self._clients: dict[str, ExternalClient] = {}

    # ------------------------------------------------------------------
    # people
    # ------------------------------------------------------------------

    def add_user(self, username: str, password: str = "pw",
                 apps: Iterable[str] = (), friends: Iterable[str] = (),
                 profile: Optional[Mapping[str, str]] = None
                 ) -> ExternalClient:
        """Sign up a user, log in a browser for them, enable apps, and
        grant the stock friends-only declassifier."""
        client = ExternalClient(username, self.provider.transport())
        client.post("/signup", params={"username": username,
                                       "password": password})
        client.login(password)
        for app in apps:
            client.post("/policy/enable", params={"app": app})
        self.provider.grant_builtin_declassifier(
            username, "friends-only", {"friends": list(friends)})
        if profile:
            self.provider.set_profile(username, **dict(profile))
        self._clients[username] = client
        return client

    def client(self, username: str) -> ExternalClient:
        return self._clients[username]

    def anonymous_client(self, name: str = "anonymous") -> ExternalClient:
        return ExternalClient(name, self.provider.transport())

    def befriend(self, a: str, b: str) -> None:
        """Symmetric friendship: app edges + declassifier lists."""
        for x, y in ((a, b), (b, a)):
            self._clients[x].get("/app/social/befriend", friend=y)
            self._grow_friends_policy(x, y)

    def unfriend(self, a: str, b: str) -> None:
        """Sever the declassifier-side friendship both ways (policy
        revocation — fresh exports stop immediately)."""
        for x, y in ((a, b), (b, a)):
            grant = self.provider.declass.grant_for(x, "friends-only")
            if grant is None:
                continue
            friends = grant.declassifier.config.get("friends", frozenset())
            if y in friends:
                self.provider.update_declassifier_config(
                    x, "friends-only", friends=set(friends) - {y})

    def _grow_friends_policy(self, x: str, y: str) -> None:
        grant = self.provider.declass.grant_for(x, "friends-only")
        if grant is not None:
            friends = grant.declassifier.config.get("friends", frozenset())
            if y not in friends:
                self.provider.update_declassifier_config(
                    x, "friends-only", friends=set(friends) | {y})

    # ------------------------------------------------------------------
    # worlds
    # ------------------------------------------------------------------

    def load_world(self, world: SocialWorld,
                   apps: Iterable[str] = ("photo-share", "blog", "social")
                   ) -> None:
        """Populate the platform from a synthetic social world."""
        app_list = list(apps)
        for user in world.users:
            self.add_user(user, apps=app_list,
                          friends=world.friend_list(user),
                          profile=world.profiles.get(user))
        for user in world.users:
            client = self._clients[user]
            for friend in world.friend_list(user):
                client.get("/app/social/befriend", friend=friend)
                # usually a no-op (add_user granted the full list), but
                # worlds edited after construction converge here
                self._grow_friends_policy(user, friend)
            for photo in world.photos.get(user, []):
                client.get("/app/photo-share/upload",
                           filename=photo["filename"],
                           data=photo["bytes"])
            for post in world.posts.get(user, []):
                client.get("/app/blog/post", title=post["title"],
                           body=post["body"])

    # ------------------------------------------------------------------
    # policy sugar
    # ------------------------------------------------------------------

    def grant_declassifier(self, username: str,
                           declassifier: Declassifier) -> None:
        self.provider.grant_declassifier(username, declassifier)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def audit(self):
        return self.provider.kernel.audit

    def trace_report(self):
        """The provider's tracing dump (see ``Provider.trace_report``);
        ``{"tracing": False}`` unless built with ``tracing=True``."""
        return self.provider.trace_report()

    def code_search(self, k: int = 5) -> list[str]:
        """Rank registered modules by CodeRank over declared imports
        plus observed usage (§3.2)."""
        deps = DependencyGraph.from_registry(self.provider.apps,
                                             self.provider.usage_edges)
        return top_k(coderank(deps), k)

    def leak_check(self, *secrets: str) -> dict[str, list[str]]:
        """Which clients ever received each secret (test convenience)."""
        report: dict[str, list[str]] = {}
        for secret in secrets:
            report[secret] = [name for name, c in self._clients.items()
                              if c.ever_received(secret)]
        return report
