"""The W5 provider: the meta-application itself.

One :class:`Provider` is "a single logical machine on which
applications and data are segregated" (§1).  It assembles every
substrate — kernel, labeled filesystem and database, sessions, the
perimeter gateway, the declassification service, the app/module
registries — and implements the §2 request pipeline:

    authenticate (cookies) → identify the application → launch it with
    the privileges users granted → run developer code confined → check
    the result at the perimeter → respond.

Everything users "configure via front-ends like Web forms" is a method
here (``signup``, ``enable_app``, ``grant_declassifier``,
``prefer_module``, …), and the interesting ones are also routed as
HTTP endpoints so the examples can drive the whole system through
:class:`~repro.net.ExternalClient` alone.
"""

from __future__ import annotations

from typing import Any, Optional

from ..db import DbView, LabeledStore
from ..declassify import BUILTINS, Declassifier, DeclassificationService
from ..fs import FsView, LabeledFileSystem
from ..kernel import Kernel, Process, ResourceHook
from ..kernel import audit as A
from ..labels import CapabilitySet, Label, LabelError, plus
from ..net import (Gateway, HttpRequest, HttpResponse, SESSION_COOKIE,
                   SessionManager, AuthError, error, ok)
from ..net.email import EmailGateway
from ..obs import FlightRecorder, NULL_TRACER, Tracer
from .accounts import UserAccount
from .config import ProviderConfig
from .context import AppContext
from .debug import DebugService
from .endorsement import EndorsementService
from .errors import (AppCrashed, NoSuchApp, NoSuchUser, NotAuthorized,
                     PlatformError)
from .plans import PlanCache, RequestPlan
from .registry import APP, AppModule, Registry


_USERNAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.")


def _validate_username(username: str) -> None:
    """Reject names that would break paths, addresses, or sanity."""
    if not isinstance(username, str) or not username:
        raise PlatformError("username must be a non-empty string")
    if len(username) > 64:
        raise PlatformError("username too long (max 64)")
    if not set(username) <= _USERNAME_OK:
        raise PlatformError(
            "username may contain only letters, digits, '-', '_', '.'")
    if username.startswith(".") or username in ("..", "provider"):
        raise PlatformError(f"username {username!r} is reserved")


class Provider:
    """A W5 provider instance (one security domain, one tag namespace)."""

    def __init__(self, name: str = "w5",
                 resources: Optional[ResourceHook] = None,
                 js_policy: str = "block",
                 rate_limit: Optional[int] = None,
                 audit_max_events: Optional[int] = None,
                 tracing: bool = False,
                 config: Optional[ProviderConfig] = None,
                 session_seed: Optional[int] = None) -> None:
        self.name = name
        #: The :class:`ProviderConfig` (default ``ProviderConfig()``).
        if config is None:
            config = ProviderConfig()
        self.config = config
        fast_request_plane = config.fast_request_plane
        recycle_processes = config.recycle_processes
        partitioned_store = config.partitioned_store
        incremental_persistence = config.incremental_persistence
        journal_compact_bytes = config.journal_compact_bytes
        #: ``tracing`` switches end-to-end request tracing (repro.obs):
        #: every handle_request builds a span tree through gateway,
        #: kernel, app, db/fs, declassifier and egress; per-span-name
        #: latency histograms accumulate; and the flight recorder keeps
        #: the slowest and every errored trace.  Off (the default), the
        #: shared NULL_TRACER makes all instrumentation sites no-ops.
        self.tracing = tracing
        if tracing:
            self.tracer: Any = Tracer()
            self.recorder: Optional[FlightRecorder] = FlightRecorder()
            self.tracer.sink = self.recorder.offer
        else:
            self.tracer = NULL_TRACER
            self.recorder = None
        #: ``incremental_persistence`` switches the durability journal:
        #: every durable mutation is appended to a checksummed log and
        #: ``snapshot_provider(..., incremental=True)`` emits O(dirty)
        #: deltas against the last full checkpoint, compacting when the
        #: journal outgrows ``journal_compact_bytes``.  Off, snapshots
        #: are always the naive full re-serialization (the M10
        #: benchmark baseline), and crash recovery can only roll back
        #: to the last full snapshot.
        self.incremental_persistence = incremental_persistence
        self.journal_compact_bytes = journal_compact_bytes
        #: ``fast_request_plane`` switches the O(1) request plane: the
        #: per-(app, viewer) launch-capability index and the memoized
        #: export-authority oracle.  Off, every request recomputes both
        #: from scratch (the M8 benchmark compares the two).
        self.fast_request_plane = fast_request_plane
        #: ``partitioned_store`` switches the label-partitioned data
        #: plane: db queries resolve visibility once per distinct
        #: ``(slabel, ilabel)`` partition and ``fs.walk`` prunes
        #: unreadable subtrees with one verdict per child label pair.
        #: Off, both fall back to the naive per-row / per-node engines
        #: (the M9 benchmark baseline and differential-test oracle).
        self.partitioned_store = partitioned_store
        self.kernel = Kernel(namespace=name, resources=resources,
                             recycle=recycle_processes,
                             audit_max_events=audit_max_events,
                             lazy_audit=config.lazy_audit,
                             compiled_transitions=config.compiled_transitions)
        self.kernel.tracer = self.tracer
        if tracing:
            # every audit event recorded inside a traced request
            # carries the active trace/span id in its extra dict (the
            # log reads tracer.current directly — no callback)
            self.kernel.audit.trace_source = self.tracer
        self.fs = LabeledFileSystem(self.kernel,
                                    grouped_walk=partitioned_store)
        self.db = LabeledStore(self.kernel, partitioned=partitioned_store,
                               batch_charges=config.batched_charges,
                               verdict_slots=config.verdict_slots)
        # shard k of a ShardedProvider seeds its session RNG with
        # seed+k so two shards never mint the same token (the router
        # maps token -> shard); shard 0 / unsharded keep the default
        # stream, preserving byte-identity with historical deployments
        self.sessions = (SessionManager() if session_seed is None
                         else SessionManager(seed=session_seed))
        self.declass = DeclassificationService(
            self.kernel, cache_authority=fast_request_plane)
        self.apps = Registry()
        self.modules = self.apps  # one namespace; kinds distinguish
        #: (app, module) dynamic usage edges for the §3.2 code search.
        self.usage_edges: list[tuple[str, str]] = []
        #: Adoption events (username, app) in order, for experiment C7.
        self.adoptions: list[tuple[str, str]] = []

        self._accounts: dict[str, UserAccount] = {}
        #: O(dirty) snapshot bookkeeping since the last full checkpoint.
        self._dirty_accounts: set[str] = set()
        self._removed_accounts: set[str] = set()

        # The provider's own trusted agents.
        self._account_service: Process = self.kernel.spawn_trusted(
            "account-service")
        self._provider_write = self.kernel.create_tag(
            self._account_service, purpose="provider-write",
            kind="integrity", tag_owner=self.name)
        # Re-label the provider's service with its integrity tag so the
        # directories it creates are provider-write-protected.
        self.kernel.change_label(self._account_service,
                                 integrity=Label([self._provider_write]))
        svc_fs = FsView(self.fs, self._account_service)
        # Root starts unprotected; claim it for the provider.
        self.fs.root.ilabel = Label([self._provider_write])
        svc_fs.mkdir("/users")

        self.gateway = Gateway(self.kernel, self.sessions,
                               authority_for=self._authority_for,
                               js_policy=js_policy,
                               rate_limit=rate_limit)
        self.email = EmailGateway(self.kernel,
                                  authority_for=self._authority_for)
        self.endorsements = EndorsementService()
        self.debug = DebugService()
        from ..search import EditorBoard
        self.editors = EditorBoard()
        from .groups import GroupService
        self.groups = GroupService(self)
        from .capindex import LaunchCapIndex
        self.capindex = LaunchCapIndex(self, enabled=fast_request_plane)
        #: Compiled per-(app, viewer) request plans (M12).  The cache
        #: exists regardless of the switch — ``explain()`` can compile
        #: a plan for inspection either way — but dispatch consults it
        #: only when ``config.request_plans`` is on.
        self.plans = PlanCache(self, enabled=config.request_plans)
        #: The durability manager (journal + dirty tracking + replay).
        #: Created last so the provider's own bootstrap (tags, /users,
        #: /groups) lands in the initial base checkpoint, not the
        #: journal.
        self._durability = None
        if incremental_persistence:
            from .durability import DurabilityManager
            self._durability = DurabilityManager(
                self, compact_threshold=journal_compact_bytes)

    # ------------------------------------------------------------------
    # durability plumbing
    # ------------------------------------------------------------------

    def _record(self, op: str, data: dict[str, Any]) -> None:
        """Journal one platform-level durable mutation (no-op when
        ``incremental_persistence`` is off or replay is running)."""
        if self._durability is not None:
            self._durability.record(op, data)

    def _note_account(self, username: str) -> None:
        self._dirty_accounts.add(username)
        self._removed_accounts.discard(username)

    def mark_accounts_clean(self) -> None:
        self._dirty_accounts.clear()
        self._removed_accounts.clear()

    def snapshot_incremental(self) -> dict[str, Any]:
        """An O(dirty) delta snapshot (or a fresh full snapshot when
        compaction triggers); see
        :func:`repro.platform.persist.snapshot_provider`."""
        from .persist import snapshot_provider
        return snapshot_provider(self, incremental=True)

    def persistence_stats(self) -> dict[str, Any]:
        """Journal/compaction counters (empty when the journal is off)."""
        if self._durability is None:
            return {"incremental_persistence": False}
        return {"incremental_persistence": True,
                **self._durability.stats()}

    # ------------------------------------------------------------------
    # tracing (repro.obs)
    # ------------------------------------------------------------------

    def trace_report(self) -> dict[str, Any]:
        """Everything the tracer collected, in serializable form:
        tracer counters, per-span-name latency histograms, and the
        flight recorder's kept traces.  The input format of
        ``python -m repro.analysis trace``."""
        if not self.tracer.enabled or self.recorder is None:
            return {"tracing": False}
        return {"tracing": True,
                "stats": self.tracer.stats(),
                "latencies": self.tracer.latencies(),
                # bucket-level snapshots: what the sharded router's
                # stitched trace_report merges exactly (M16)
                "histograms": {
                    name: hist.snapshot() for name, hist
                    in sorted(self.tracer._histograms.items())},
                "recorder": self.recorder.dump()}

    def health_report(self) -> dict[str, Any]:
        """Readiness gauges from state the provider already keeps:
        journal byte lag, pool occupancy, plan-cache hit ratio, audit
        drops (M16; see :func:`repro.obs.fleet.provider_health`)."""
        from ..obs.fleet import provider_health
        return provider_health(self)

    # ------------------------------------------------------------------
    # accounts (provider web forms)
    # ------------------------------------------------------------------

    def signup(self, username: str, password: str) -> UserAccount:
        """Create an account: credentials, tags, home directory."""
        _validate_username(username)
        if username in self._accounts:
            raise PlatformError(f"user {username!r} already exists")
        self.sessions.register(username, password)
        data_tag = self.kernel.create_tag(
            self._account_service, purpose=f"{username}-data",
            tag_owner=username)
        write_tag = self.kernel.create_tag(
            self._account_service, purpose=f"{username}-write",
            kind="integrity", tag_owner=username)
        account = UserAccount(username=username, data_tag=data_tag,
                              write_tag=write_tag,
                              email_address=f"{username}@{self.name}")
        self._accounts[username] = account
        self.email.register_address(account.email_address, owner=username)
        self._note_account(username)
        self._record("account.signup", {
            "username": username, "data_tag_id": data_tag.tag_id,
            "write_tag_id": write_tag.tag_id,
            "email": account.email_address})
        svc_fs = FsView(self.fs, self._account_service)
        svc_fs.mkdir(account.home, slabel=Label([data_tag]),
                     ilabel=Label([write_tag]))
        self.kernel.audit.record(A.SPAWN, True, "provider",
                                 f"account created for {username}")
        return account

    def account(self, username: str) -> UserAccount:
        try:
            return self._accounts[username]
        except KeyError:
            raise NoSuchUser(username) from None

    def usernames(self) -> list[str]:
        return sorted(self._accounts)

    def set_profile(self, username: str, **fields: str) -> None:
        """Provider-form profile editing (typed once, §1)."""
        self.account(username).profile.update(fields)
        self._note_account(username)
        self._record("account.profile", {"username": username,
                                         "fields": dict(fields)})

    def delete_account(self, username: str) -> dict[str, int]:
        """The right to leave: erase a user's data and policies.

        Removes the home directory, every database row labeled exactly
        with the user's data tag, all declassifier grants, the account
        record, and group memberships (groups the user *owns* survive
        headless until the provider reassigns them — a real deployment
        would prompt; we keep them so other members' shared data is
        not destroyed by one member's departure).  The tags themselves
        are never reused — the registry retains them as tombstones, so
        any stray labeled bytes stay locked forever rather than
        falling to a future user.

        Returns counts of what was erased.
        """
        account = self.account(username)
        erased = {"files": 0, "rows": 0, "grants": 0}
        agent = self._user_agent(account)
        fs_view = FsView(self.fs, agent)
        try:
            # files: depth-first delete of the home subtree
            def wipe(path: str) -> None:
                for name in fs_view.listdir(path):
                    child = f"{path}/{name}"
                    if fs_view.stat(child)["is_dir"]:
                        wipe(child)
                        fs_view.delete(child)
                    else:
                        fs_view.delete(child)
                        erased["files"] += 1
            if fs_view.exists(account.home):
                wipe(account.home)
                # unlinking the home entry writes /users (provider-
                # protected): the account service does it, and it owns
                # the user's write tag (it minted it), so the node
                # check passes too
                svc_fs = FsView(self.fs, self._account_service)
                svc_fs.delete(account.home)
            # rows labeled exactly with the user's tag, purged through
            # the store's (journaled) cold-storage path
            for table_name in self.db.tables():
                table = self.db.table(table_name)
                doomed = [row.row_id for row in table.rows.values()
                          if row.slabel == Label([account.data_tag])]
                erased["rows"] += self.db.purge_rows(table_name, doomed)
        finally:
            self.kernel.exit(agent)
        erased["grants"] = self.declass.revoke(username, account.data_tag)
        for group_name in self.groups.groups_of(username):
            group = self.groups.get(group_name)
            if group.owner != username:
                self.groups.remove_member(group.owner, group_name,
                                          username)
        self.sessions.remove_user(username)
        del self._accounts[username]
        self._dirty_accounts.discard(username)
        self._removed_accounts.add(username)
        self._record("account.delete", {"username": username})
        # every app the user had enabled loses a read cap
        self.capindex.invalidate_all("account-delete")
        self.kernel.audit.record(A.EXIT, True, "provider",
                                 f"account deleted: {username}")
        return erased

    # ------------------------------------------------------------------
    # user policy (provider web forms)
    # ------------------------------------------------------------------

    def enable_app(self, username: str, app_name: str,
                   allow_write: bool = True) -> None:
        """The checkbox: let ``app_name`` read (and optionally write)
        this user's data.  This is the paper's entire signup flow for a
        new application (§1: "simply by checking a box")."""
        account = self.account(username)
        if app_name not in self.apps:
            raise NoSuchApp(app_name)
        account.enabled_apps.add(app_name)
        if allow_write:
            account.writable_apps.add(app_name)
        self.adoptions.append((username, app_name))
        self._note_account(username)
        self._record("account.enable", {"username": username,
                                        "app": app_name,
                                        "write": allow_write})
        self.capindex.invalidate_app(app_name)

    def disable_app(self, username: str, app_name: str) -> None:
        account = self.account(username)
        account.enabled_apps.discard(app_name)
        account.writable_apps.discard(app_name)
        self._note_account(username)
        self._record("account.disable", {"username": username,
                                         "app": app_name})
        self.capindex.invalidate_app(app_name)

    def prefer_module(self, username: str, slot: str, ref: str) -> None:
        """Record the user's choice of a competing module (§2)."""
        if ref not in self.apps:
            raise NoSuchApp(ref)
        self.account(username).module_preferences[slot] = ref
        self._note_account(username)
        self._record("account.prefer", {"username": username,
                                        "slot": slot, "ref": ref})

    def snapshot(self) -> dict[str, Any]:
        """:class:`~repro.core.snapshot.Snapshotable` — serialize the
        whole deployment (restore with
        :func:`repro.platform.restore_provider`)."""
        from .persist import snapshot_provider
        return snapshot_provider(self)

    def grant_declassifier(self, username: str, declassifier: Declassifier
                           ) -> None:
        """Entrust a declassifier with the user's data tag.

        The platform verifies ownership: users grant export privileges
        over *their own* tag only.
        """
        account = self.account(username)
        self.declass.grant(username, account.data_tag, declassifier)

    def grant_builtin_declassifier(self, username: str, name: str,
                                   config: Optional[dict[str, Any]] = None
                                   ) -> None:
        try:
            cls = BUILTINS[name]
        except KeyError:
            raise NoSuchApp(f"declassifier {name!r}") from None
        self.grant_declassifier(username, cls(config))

    def update_declassifier_config(self, username: str, name: str,
                                   **changes: Any) -> int:
        """Amend the policy config of the user's granted declassifier(s)
        named ``name`` (e.g. grow a friends-only list).

        Policy edits are user decisions, so they go through the
        platform — never by mutating ``grant.declassifier.config``
        directly.  Every updated grant is audited.  Returns the number
        of grants updated; raises
        :class:`~repro.platform.errors.NoSuchApp` if the user has no
        grant by that name.
        """
        account = self.account(username)
        updated = 0
        for grant in self.declass.grants_for(username):
            if grant.tag == account.data_tag \
                    and grant.declassifier.name == name:
                grant.declassifier.update_config(**changes)
                updated += 1
        if not updated:
            raise NoSuchApp(
                f"{username} has no {name!r} declassifier grant")
        self.declass.note_config_update(username, account.data_tag,
                                        name, changes)
        self.declass.invalidate_authority("config-update")
        self.kernel.audit.record(
            A.DECLASSIFY, True, username,
            f"updated {name!r} config ({', '.join(sorted(changes))})")
        return updated

    def revoke_declassifier(self, username: str,
                            name: Optional[str] = None) -> int:
        account = self.account(username)
        return self.declass.revoke(username, account.data_tag,
                                   declassifier_name=name)

    def set_integrity_policy(self, username: str,
                             require_endorsed: bool) -> None:
        """§3.1 integrity protection: launch apps for this user only
        when all components are endorsed."""
        self.account(username).require_endorsed = require_endorsed
        self._note_account(username)
        self._record("account.integrity",
                     {"username": username,
                      "require_endorsed": require_endorsed})

    def set_js_policy(self, username: str, policy: str) -> None:
        """Per-user JavaScript posture at the perimeter (§3.5)."""
        if policy not in ("", "block", "allow"):
            raise PlatformError(f"unknown js policy {policy!r}")
        self.account(username).js_policy = policy
        self._note_account(username)
        self._record("account.js", {"username": username,
                                    "policy": policy})

    def endorse_module(self, module_name: str,
                       endorser: str = "provider") -> None:
        """Mark a registered module as audited/meritorious."""
        if module_name not in self.apps:
            raise NoSuchApp(module_name)
        self.endorsements.endorse(module_name, endorser)

    def pin_audited(self, username: str, app_name: str,
                    version: str) -> None:
        """§3.2: the user audited this exact version; her requests will
        run it regardless of later uploads — "the code with which a
        user is interacting is exactly the code that the user has
        audited", guaranteed by the platform.

        Pinning requires the source to be open (one cannot audit what
        one cannot read) and the version to exist.
        """
        module = self.apps.get(f"{app_name}@{version}")
        if not module.source_open:
            raise NotAuthorized(
                f"{app_name} is closed-source; there is nothing to audit")
        self.account(username).audited_versions[app_name] = version
        self._note_account(username)
        self._record("account.pin", {"username": username,
                                     "app": app_name, "version": version})

    def unpin_audited(self, username: str, app_name: str) -> None:
        self.account(username).audited_versions.pop(app_name, None)
        self._note_account(username)
        self._record("account.unpin", {"username": username,
                                       "app": app_name})

    # ------------------------------------------------------------------
    # developer uploads
    # ------------------------------------------------------------------

    def register_app(self, module: AppModule) -> AppModule:
        return self.apps.register(module)

    def fork_app(self, original: str, new_developer: str, **kw: Any
                 ) -> AppModule:
        return self.apps.fork(original, new_developer, **kw)

    def record_usage(self, app_name: str, module_name: str) -> None:
        self.usage_edges.append((app_name, module_name))
        self._record("ledger.usage", {"app": app_name,
                                      "module": module_name})

    # ------------------------------------------------------------------
    # code search (§3.2)
    # ------------------------------------------------------------------

    def code_search(self, query: Optional[str] = None, k: int = 10
                    ) -> list[dict[str, Any]]:
        """Rank registered modules by the §3.2 trust blend: structural
        CodeRank over declared imports + observed usage, popularity,
        and editor endorsements weighted by adoption-derived
        reputation.  ``query`` filters by substring on name/description.
        """
        from collections import Counter
        from ..search import DependencyGraph, TrustScorer
        deps = DependencyGraph.from_registry(self.apps, self.usage_edges)
        usage_counts = Counter(module for __, module in self.usage_edges)
        adoption_counts = Counter(app for __, app in self.adoptions)
        scores = TrustScorer().score(deps, usage_counts,
                                     board=self.editors,
                                     adoption_counts=adoption_counts)
        results = []
        for module in self.apps:
            if query:
                haystack = f"{module.name} {module.description}".lower()
                if query.lower() not in haystack:
                    continue
            results.append({"name": module.name,
                            "developer": module.developer,
                            "kind": module.kind,
                            "description": module.description,
                            "score": scores.get(module.name, 0.0)})
        results.sort(key=lambda r: (-r["score"], r["name"]))
        return results[:k]

    # ------------------------------------------------------------------
    # data plane helpers (the provider acting for a logged-in user)
    # ------------------------------------------------------------------

    def store_user_data(self, username: str, path: str, data: Any) -> None:
        """Store data under the user's labels via the trusted account
        service (models a direct provider-form upload)."""
        account = self.account(username)
        agent = self._user_agent(account)
        FsView(self.fs, agent).create(f"{account.home}/{path}", data)
        self.kernel.exit(agent)

    def read_user_data(self, username: str, path: str) -> Any:
        account = self.account(username)
        agent = self._user_agent(account)
        data = FsView(self.fs, agent).read(f"{account.home}/{path}")
        self.kernel.exit(agent)
        return data

    def _user_agent(self, account: UserAccount) -> Process:
        """A short-lived trusted process with the user's full authority."""
        return self.kernel.spawn_trusted(
            f"agent:{account.username}",
            slabel=Label([account.data_tag]),
            ilabel=Label([account.write_tag]),
            caps=CapabilitySet.owning(account.data_tag, account.write_tag),
            owner_user=account.username)

    # ------------------------------------------------------------------
    # the provider's universal feed (value-level enforcement)
    # ------------------------------------------------------------------

    def render_universal_feed(self, viewer: Optional[str],
                              k: int = 20) -> HttpResponse:
        """A provider-owned route that shows *every* blog post the
        viewer is cleared for, one item at a time.

        This is the language-level granularity (A2) put to work at the
        platform layer: trusted provider code (same standing as the
        login service) assembles a :class:`~repro.lang.LabeledList`
        with per-author labels and exports exactly the authorized
        subset, instead of launching an app whose process label would
        make the response all-or-nothing.  Developer code is never
        involved, so no new trust is introduced.
        """
        from ..lang import LabeledList, lift
        feed = LabeledList()
        agent = self.kernel.spawn_trusted("feed-renderer")
        try:
            if "blog_posts" in self.db.tables():
                table = self.db.table("blog_posts")
                for row in table.rows.values():
                    feed.append(lift(
                        {"author": row.values.get("author"),
                         "title": row.values.get("title")},
                        row.slabel))
        finally:
            self.kernel.exit(agent)
        authority = self._authority_for(viewer)
        delivered, withheld = feed.export_for(authority)
        delivered.sort(key=lambda item: (str(item.get("author")),
                                         str(item.get("title"))))
        return ok({"feed": delivered[:k], "withheld": withheld})

    # ------------------------------------------------------------------
    # the export-authority oracle (gateway plug-in)
    # ------------------------------------------------------------------

    def _authority_for(self, viewer: Optional[str]) -> CapabilitySet:
        own_tags = []
        if viewer is not None and viewer in self._accounts:
            own_tags.append(self._accounts[viewer].data_tag)
        return self.declass.authority_for(viewer, own_tags=own_tags)

    # ------------------------------------------------------------------
    # application launch
    # ------------------------------------------------------------------

    def launch_caps(self, app: AppModule,
                    viewer: Optional[str] = None) -> CapabilitySet:
        """The capabilities an instance of ``app`` starts with.

        * **read** (``tag+``): for every user who enabled the app —
          commingling requires the union, and reads are harmless
          because export is checked downstream;
        * **write** (``wtag+``): only on behalf of the *driving*
          viewer — their own write tag if they granted the app write,
          and the write tags of groups where they are a writer.  A
          delegated write privilege thus acts only when its delegator
          (or a fellow group writer) is at the wheel; another user
          cannot steer your delegate into your data.

        Served from :class:`~repro.platform.capindex.LaunchCapIndex`,
        which memoizes the finished set per (app, viewer) and falls
        back to :meth:`_scan_launch_caps` on a miss.
        """
        return self.capindex.lookup(app, viewer)

    def _scan_launch_caps(self, app: AppModule,
                          viewer: Optional[str] = None) -> CapabilitySet:
        """The legacy full scan: every account, every group.  The
        index's miss path — kept as the single source of truth for
        what the capabilities *are*."""
        caps = []
        for account in self._accounts.values():
            if app.name in account.enabled_apps:
                caps.append(plus(account.data_tag))
        if viewer is not None and viewer in self._accounts:
            account = self._accounts[viewer]
            if app.name in account.writable_apps:
                caps.append(plus(account.write_tag))
        caps.extend(self.groups.launch_caps_for(app.name, viewer))
        return CapabilitySet(caps)

    def run_app(self, app_ref: str, request: HttpRequest,
                viewer: Optional[str]) -> HttpResponse:
        """Launch an app for one request and return its *internal*
        (still-labeled) response.  Crashes become a generic 500: "if
        the platform were to send core dumps to developers, it could
        wrongly expose users' data" (§3.5), so the traceback goes to
        the audit log, not the wire.
        """
        with self.kernel.tracer.detail("app.run", app=app_ref,
                                       viewer=viewer or "anonymous"):
            return self._run_app(app_ref, request, viewer)

    def _run_app(self, app_ref: str, request: HttpRequest,
                 viewer: Optional[str]) -> HttpResponse:
        app = self.apps.get(app_ref)
        if viewer is not None and viewer in self._accounts:
            account = self._accounts[viewer]
            pinned = account.audited_versions.get(app.name)
            if pinned is not None and "@" not in app_ref:
                # the user audited a specific version; run exactly it
                app = self.apps.get(f"{app.name}@{pinned}")
            if account.require_endorsed:
                ok_to_launch, missing = self.endorsements.check_app(
                    self.apps, app, account.module_preferences)
                if not ok_to_launch:
                    self.kernel.audit.record(
                        A.SPAWN, False, "provider",
                        f"integrity policy: {app.name} has unendorsed "
                        f"components {missing} (viewer {viewer})")
                    return error(403, "application not endorsed")
        process = self.kernel.pool.checkout(
            f"app:{app.name}", caps=self.launch_caps(app, viewer),
            owner_user=viewer)
        self.kernel.resources.charge(process, "requests", 1)
        ctx = AppContext(self, app,
                         sys=self.kernel.syscalls_for(process),
                         fs=FsView(self.fs, process),
                         db=DbView(self.db, process),
                         request=request, viewer=viewer)
        try:
            result = app.handler(ctx)
        except LabelError:
            # The reference monitor said no; the app died for it.
            self.kernel.audit.record(
                A.EXPORT, False, f"app:{app.name}",
                "killed by label violation")
            return error(403, "forbidden")
        except Exception as exc:
            # §3.5 Debugging: the developer gets a sanitized report;
            # the audit log keeps the class name; the wire gets nothing.
            self.debug.record_crash(app, exc)
            self.kernel.audit.record(
                A.EXIT, False, f"app:{app.name}",
                f"crashed with {type(exc).__name__}")
            return error(500, "application error")
        finally:
            taint = process.slabel
            # Back to the pool if untainted (labels/caps unchanged);
            # otherwise this is a plain kernel exit.
            self.kernel.pool.release(process)
        if isinstance(result, HttpResponse):
            result.content_label = result.content_label | taint
            result.set_cookies.update(ctx.set_cookies)
            return result
        return HttpResponse(status=200, body=result,
                            set_cookies=dict(ctx.set_cookies),
                            content_label=taint)

    # ------------------------------------------------------------------
    # HTTP front door
    # ------------------------------------------------------------------

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """The full pipeline; everything the outside world ever calls.

        With tracing on, this is where the root span opens: the whole
        pipeline (and every kernel/db/fs/gateway operation it causes)
        nests under one ``{method} {path}`` trace, and the response
        status is stamped on the root so denied/erroring requests land
        in the flight recorder.
        """
        tracer = self.kernel.tracer
        if not tracer.enabled:
            return self._handle_request(request)
        # the root span's name already carries method and path; not
        # duplicating them as attrs saves a 2-entry dict per request
        with tracer.request(f"{request.method} {request.path}"):
            response = self._handle_request(request)
            tracer.annotate(status=response.status)
            return response

    def _handle_request(self, request: HttpRequest) -> HttpResponse:
        # one detail span for the whole ingress decision (cookie
        # resolution + rate-limit window), shown on sampled traces.
        # _fold is checked here so the unsampled steady state skips
        # even the detail-span ceremony (kwargs + null-span enter).
        if self.kernel.tracer._fold:
            with self.kernel.tracer.detail("gateway.admission") as sp:
                session = self.gateway.authenticate(request)
                viewer = session.username if session else None
                sp.annotate(user=viewer or "<anonymous>")
                if not self.gateway.admit(viewer):
                    sp.annotate(admitted=False)
                    return HttpResponse(status=429,
                                        body={"error": "slow down"})
            parts = request.path_parts()
            if self.plans.enabled and len(parts) >= 2 and parts[0] == "app":
                return self._handle_planned(request, viewer, parts,
                                            admitted=True)
        else:
            session = self.gateway.authenticate(request)
            viewer = session.username if session else None
            parts = request.path_parts()
            if self.plans.enabled and len(parts) >= 2 and parts[0] == "app":
                # planned dispatch runs (or statically skips) admission
                # itself; everything else is observable-identical
                return self._handle_planned(request, viewer, parts)
            if not self.gateway.admit(viewer):
                return HttpResponse(status=429,
                                    body={"error": "slow down"})
        return self._finish_request(request, viewer, parts)

    def _finish_request(self, request: HttpRequest, viewer: Optional[str],
                        parts: list[str]) -> HttpResponse:
        """Route + egress for an admitted request (the generic plane)."""
        try:
            internal = self._route(request, viewer, parts)
        except (NoSuchApp, NoSuchUser):
            internal = error(404, "not found")
        except NotAuthorized:
            internal = error(403, "forbidden")
        except (PlatformError, AuthError) as exc:
            internal = error(400, str(exc))
        except (ValueError, TypeError, KeyError):
            # malformed client input to a provider route (bad ints,
            # missing params): a client error, not a crash
            internal = error(400, "bad request")
        except Exception as exc:  # noqa: BLE001 - the front door is total
            # nothing internal may ride out on an error path (§3.5)
            self.kernel.audit.record(
                A.EXIT, False, "provider",
                f"route crashed with {type(exc).__name__}")
            internal = error(500, "internal error")
        js_policy = None
        if viewer is not None and viewer in self._accounts:
            js_policy = self._accounts[viewer].js_policy or None
        return self.gateway.egress(internal, viewer, js_policy=js_policy)

    # ------------------------------------------------------------------
    # the compiled plane (M12): plan lookup + planned dispatch
    # ------------------------------------------------------------------

    def _lookup_plan(self, app_ref: str,
                     viewer: Optional[str]) -> Optional[RequestPlan]:
        """Plan-cache lookup, with a ``plan.lookup`` detail span (and
        hit/miss annotation) on sampled traces."""
        plans = self.plans
        tracer = self.kernel.tracer
        if tracer._fold:
            before = plans._stats["hits"]
            with tracer.detail("plan.lookup", app=app_ref) as sp:
                plan = plans.lookup(app_ref, viewer)
                sp.annotate(hit=plans._stats["hits"] > before,
                            planned=plan is not None)
                return plan
        return plans.lookup(app_ref, viewer)

    def _handle_planned(self, request: HttpRequest, viewer: Optional[str],
                        parts: list[str], admitted: bool = False,
                        plan: Optional[RequestPlan] = None) -> HttpResponse:
        """The planned front door for ``/app/...`` requests.

        Observable-identical to :meth:`_finish_request` on the same
        input: the same audit events, charges and responses, with the
        pure recomputation (app resolution, launch caps, pool key,
        authority) read from the compiled plan instead.  ``plan`` may
        be passed pre-validated by :meth:`handle_batch`; account policy
        that never bumps an epoch (integrity requirement, audited pins)
        is re-checked live either way.
        """
        if not admitted and self.gateway.rate_limit is not None:
            # with a rate limit configured admission has observables
            # (window counts, 429s, audit) and must run exactly as the
            # generic plane does; without one, admit() is a constant
            # True with no side effects — the plan's static verdict.
            if not self.gateway.admit(viewer):
                return HttpResponse(status=429, body={"error": "slow down"})
        if plan is not None:
            account = plan.account
            if account is not None and (account.require_endorsed
                                        or account.audited_versions):
                plan = None  # stale hint; re-resolve (and bypass) below
        try:
            if plan is None:
                plan = self._lookup_plan(parts[1], viewer)
            if plan is None:
                internal = self._route(request, viewer, parts)
            else:
                with self.kernel.tracer.detail(
                        "app.run", app=parts[1],
                        viewer=viewer or "anonymous"):
                    internal = self._run_planned(plan, request, viewer)
        except (NoSuchApp, NoSuchUser):
            internal = error(404, "not found")
        except NotAuthorized:
            internal = error(403, "forbidden")
        except (PlatformError, AuthError) as exc:
            internal = error(400, str(exc))
        except (ValueError, TypeError, KeyError):
            internal = error(400, "bad request")
        except Exception as exc:  # noqa: BLE001 - the front door is total
            self.kernel.audit.record(
                A.EXIT, False, "provider",
                f"route crashed with {type(exc).__name__}")
            internal = error(500, "internal error")
        js_policy = None
        if viewer is not None:
            account = plan.account if plan is not None \
                else self._accounts.get(viewer)
            if account is not None:
                js_policy = account.js_policy or None
        if plan is not None and plan.authority is not None \
                and plan.auth_epoch == self.declass.authority_epoch:
            return self.gateway.egress_planned(
                internal, viewer, js_policy, plan.authority,
                plan.allow_detail)
        return self.gateway.egress(internal, viewer, js_policy=js_policy)

    def _run_planned(self, plan: RequestPlan, request: HttpRequest,
                     viewer: Optional[str]) -> HttpResponse:
        """:meth:`_run_app` with the pure prefix read from the plan.

        Process lifecycle, charges and every audit record are the
        ordinary kernel paths — a plan only skips recomputing what it
        already proved (resolution, caps, pool key, partition
        verdicts via the DbView binding).
        """
        process = self.kernel.pool.checkout_planned(plan.pool_key, viewer)
        self.kernel.resources.charge(process, "requests", 1)
        app = plan.app
        ctx = AppContext(self, app,
                         sys=self.kernel.syscalls_for(process),
                         fs=FsView(self.fs, process),
                         db=DbView(self.db, process, plan=plan),
                         request=request, viewer=viewer)
        try:
            result = app.handler(ctx)
        except LabelError:
            self.kernel.audit.record(
                A.EXPORT, False, plan.process_name,
                "killed by label violation")
            return error(403, "forbidden")
        except Exception as exc:
            self.debug.record_crash(app, exc)
            self.kernel.audit.record(
                A.EXIT, False, plan.process_name,
                f"crashed with {type(exc).__name__}")
            return error(500, "application error")
        finally:
            taint = process.slabel
            self.kernel.pool.release(process)
        if isinstance(result, HttpResponse):
            result.content_label = result.content_label | taint
            result.set_cookies.update(ctx.set_cookies)
            return result
        return HttpResponse(status=200, body=result,
                            set_cookies=dict(ctx.set_cookies),
                            content_label=taint)

    def handle_batch(self, requests: list[HttpRequest]
                     ) -> list[HttpResponse]:
        """Handle N requests with one plan lookup per distinct
        (app, viewer) pair — the M12 batch entrypoint.

        Responses come back in request order and are byte-identical to
        N separate :meth:`handle_request` calls.  Plan validity is
        re-stamped per request (three integer compares), so a request
        that edits policy mid-batch retires the shared plan for the
        requests behind it.  With plans disabled or tracing enabled
        the batch degrades to the ordinary per-request pipeline.
        """
        plans = self.plans
        if not plans.enabled or self.kernel.tracer.enabled:
            return [self.handle_request(r) for r in requests]
        responses = []
        shared: dict[tuple[str, Optional[str]], RequestPlan] = {}
        for request in requests:
            session = self.gateway.authenticate(request)
            viewer = session.username if session else None
            parts = request.path_parts()
            if len(parts) >= 2 and parts[0] == "app":
                key = (parts[1], viewer)
                plan = shared.get(key)
                if plan is not None and not plan.is_current(self):
                    del shared[key]
                    plan = None
                if plan is None and key not in shared:
                    try:
                        plan = plans.lookup(parts[1], viewer)
                    except Exception:
                        # resolution errors re-raise identically on the
                        # per-request path below
                        plan = None
                    if plan is not None:
                        shared[key] = plan
                responses.append(self._handle_planned(
                    request, viewer, parts, plan=plan))
            else:
                if not self.gateway.admit(viewer):
                    responses.append(HttpResponse(
                        status=429, body={"error": "slow down"}))
                    continue
                responses.append(
                    self._finish_request(request, viewer, parts))
        return responses

    def handle_batch_traced(self, requests: list[HttpRequest],
                            ctx: Optional[Any] = None
                            ) -> tuple[list[HttpResponse], list[dict]]:
        """:meth:`handle_batch` plus remote trace capture (M16).

        The sharded router's per-shard entrypoint: with a
        :class:`~repro.obs.TraceContext` from the router's open
        ``router.batch`` span, every trace this shard finishes for the
        sub-batch inherits the router's sampling decision and comes
        back as a skeleton dict for the router to graft — plain
        picklable data, so the same tuple shape crosses the fork
        engine's pipe.  Without a context
        (or with tracing off) it is exactly ``handle_batch`` with an
        empty skeleton list.
        """
        tracer = self.kernel.tracer
        if ctx is None or not tracer.enabled:
            return self.handle_batch(requests), []
        from ..obs.fleet import RemoteCapture
        from ..obs.trace import TraceContext
        with RemoteCapture(tracer, TraceContext(*ctx)) as capture:
            responses = self.handle_batch(requests)
        return responses, capture.skeletons

    def explain(self, app_ref: str,
                viewer: Optional[str] = None) -> dict[str, Any]:
        """The compiled :class:`RequestPlan` for (app, viewer), as a
        serializable dict — caps, labels, partition verdicts, egress
        verdict, epoch stamps.  Works whether or not planned dispatch
        is enabled (the plan is compiled on demand), so the fast path
        is inspectable rather than opaque.  Rendered by
        ``python -m repro.analysis plan``.
        """
        plan = self.plans.lookup(app_ref, viewer)
        if plan is None:
            return {"provider": self.name, "app": app_ref,
                    "viewer": viewer, "planned": False,
                    "reason": "account policy (integrity requirement or "
                              "audited version pin) forces the generic "
                              "path for this viewer"}
        description = plan.describe()
        description["provider"] = self.name
        description["planned"] = True
        description["dispatch_enabled"] = self.plans.enabled
        description["config"] = self.config.describe()
        return description

    def _route(self, request: HttpRequest, viewer: Optional[str],
               parts: list[str]) -> HttpResponse:
        if not parts:
            return ok({"provider": self.name, "apps": sorted(
                m.name for m in self.apps.by_kind(APP))})
        head = parts[0]
        if head == "signup":
            self.signup(request.param("username"), request.param("password"))
            return ok({"created": request.param("username")})
        if head == "login":
            session = self.sessions.login(request.param("username"),
                                          request.param("password"))
            resp = ok({"welcome": session.username})
            resp.set_cookies[SESSION_COOKIE] = session.token
            return resp
        if head == "logout":
            token = request.cookies.get(SESSION_COOKIE, "")
            self.sessions.logout(token)
            return ok({"bye": True})
        if head == "policy":
            return self._route_policy(request, viewer, parts[1:])
        if head == "apps":
            return ok([{"name": m.name, "developer": m.developer,
                        "version": m.version, "kind": m.kind,
                        "description": m.description}
                       for m in self.apps])
        if head == "search":
            return ok(self.code_search(query=request.param("q"),
                                       k=int(request.param("k", 10))))
        if head == "feed":
            return self.render_universal_feed(
                viewer, k=int(request.param("k", 20)))
        if head == "app" and len(parts) >= 2:
            return self.run_app(parts[1], request, viewer)
        raise NoSuchApp("/".join(parts))

    def _route_policy(self, request: HttpRequest, viewer: Optional[str],
                      parts: list[str]) -> HttpResponse:
        """The provider's policy web forms (§2), HTTP flavor."""
        if viewer is None:
            raise NotAuthorized("log in to edit policies")
        action = parts[0] if parts else ""
        if action == "enable":
            self.enable_app(viewer, request.param("app"),
                            allow_write=bool(request.param("write", True)))
            return ok({"enabled": request.param("app")})
        if action == "disable":
            self.disable_app(viewer, request.param("app"))
            return ok({"disabled": request.param("app")})
        if action == "prefer":
            self.prefer_module(viewer, request.param("slot"),
                               request.param("module"))
            return ok({"slot": request.param("slot"),
                       "module": request.param("module")})
        if action == "declassifier":
            self.grant_builtin_declassifier(
                viewer, request.param("name"),
                config=request.param("config", {}))
            return ok({"granted": request.param("name")})
        if action == "profile":
            fields = {k: v for k, v in request.params.items()}
            self.set_profile(viewer, **fields)
            return ok({"profile": "updated"})
        if action == "integrity":
            self.set_integrity_policy(
                viewer, bool(request.param("require_endorsed", True)))
            return ok({"require_endorsed":
                       self.account(viewer).require_endorsed})
        if action == "javascript":
            policy = request.param("policy", "")
            self.set_js_policy(viewer, policy)
            return ok({"js_policy": policy or "inherit"})
        if action == "audience":
            # "who can currently receive MY data?" — each user may ask
            # about their own data only
            from .inspect import PolicyInspector
            audience = PolicyInspector(self).reachable_audience(viewer)
            return ok({"audience": [a or "anonymous" for a in audience]})
        if action == "explain":
            from .inspect import PolicyInspector
            target = request.param("viewer")
            explanation = PolicyInspector(self).explain(viewer, target)
            return ok({"viewer": target, "allowed": explanation.allowed,
                       "why": explanation.summary()})
        raise NoSuchApp(f"policy/{action}")

    # ------------------------------------------------------------------

    def transport(self):
        """The function external clients use as their network."""
        return self.handle_request
