"""Compiled request plans: the M12 dispatch fast path.

The hot request is fully memoized by M8–M11 — the LaunchCapIndex, the
authority memo, the flow cache's subject verdicts and the partition
verdicts each answer in O(1) — but the pipeline still *interprets* its
way through them: resolve the app, hash (app, viewer) into the cap
index, rebuild the pool key, batch partition verdicts through a
pid-keyed cache that a tainted-and-exited process misses every request,
then re-derive the viewer's export authority.  A
:class:`RequestPlan` compiles all of that, once per (app, viewer)
pair, into one record the dispatch loop reads field by field:

* the resolved :class:`~repro.platform.registry.AppModule`;
* the launch :class:`~repro.labels.CapabilitySet` and the finished
  process-pool checkout key;
* value-keyed partition read verdicts — keyed by the *label state*
  ``(slabel, ilabel, caps)`` instead of the pid, so fresh processes
  (the tainted-read steady state) reuse them across requests;
* the viewer's precomputed export authority and the egress audit
  detail string.

Validity is epoch-guarded by the exact invalidation hooks the four
memo layers already fire: :class:`LaunchCapIndex.epoch` covers
enable/disable/delete-account/group events/restore,
``DeclassificationService.authority_epoch`` covers grant/revoke/config
updates (befriend/unfriend), and ``Registry.epoch`` covers uploads and
forks that re-point ``name`` resolution.  A plan whose stamps disagree
with any of the three is recompiled on next use — there is no
invalidation callback to forget.

Plans only ever replace *pure recomputation*; every observable —
process spawn/exit, label changes, resource charges, audit records —
still happens through the ordinary kernel paths, which is what lets
``tests/platform/test_plan_differential.py`` assert byte-identical
responses and audit streams against the unplanned plane.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from ..labels import CapabilitySet, Label
from ..labels.flow import can_read

if TYPE_CHECKING:  # pragma: no cover
    from .accounts import UserAccount
    from .provider import Provider
    from .registry import AppModule

#: Bounds on the lazily-grown verdict tables: label *states* a process
#: can be in while running one app (untainted + one per author read),
#: and partitions per state.  Overflow clears — plans are caches.
_MAX_STATES = 64
_MAX_VERDICTS = 4096


def _bypassed(account: "Optional[UserAccount]") -> bool:
    """True when the viewer's account carries per-request policy a plan
    cannot freeze: an integrity requirement (``require_endorsed``) or
    audited version pins.  Neither bumps an epoch when edited, so the
    generic path checks them live on every request."""
    return account is not None and bool(account.require_endorsed
                                        or account.audited_versions)


class RequestPlan:
    """Everything the dispatch loop needs for one (app, viewer) pair."""

    __slots__ = ("app_ref", "viewer", "app", "account", "caps",
                 "process_name", "pool_key", "authority", "allow_detail",
                 "cap_epoch", "auth_epoch", "reg_epoch",
                 "_verdicts", "_slot_rows", "_slot_pkeys", "_row_memo")

    def __init__(self, app_ref: str, viewer: Optional[str],
                 app: "AppModule", account: "Optional[UserAccount]",
                 caps: CapabilitySet, authority: Optional[CapabilitySet],
                 cap_epoch: int, auth_epoch: int, reg_epoch: int) -> None:
        self.app_ref = app_ref
        self.viewer = viewer
        self.app = app
        self.account = account
        self.caps = caps
        self.process_name = f"app:{app.name}"
        #: The finished pool-checkout key (apps launch unlabeled; taint
        #: is acquired per request, never at launch).
        self.pool_key = (self.process_name, Label.EMPTY, Label.EMPTY, caps)
        #: Precomputed export authority, or None when any uncacheable
        #: (time-dependent) declassifier grant exists — then egress
        #: falls back to the live oracle.
        self.authority = authority
        self.allow_detail = f"allow export to {viewer or 'anonymous'}"
        self.cap_epoch = cap_epoch
        self.auth_epoch = auth_epoch
        self.reg_epoch = reg_epoch
        #: (slabel, ilabel, caps) -> {(row_slabel, row_ilabel): bool}.
        self._verdicts: dict[tuple, dict[tuple, bool]] = {}
        #: Array-backed variant (M14): (slabel, ilabel, caps) -> dense
        #: verdict list indexed by the store's small-int partition slot.
        self._slot_rows: dict[tuple, list] = {}
        #: slot -> partition key, maintained on miss so describe() can
        #: render the dense rows the same way as the dict tables.
        self._slot_pkeys: dict[int, tuple] = {}
        #: Last (state, slots-list, row) served by read_verdict_row —
        #: the steady state repeats one (state, where) pair per request.
        self._row_memo: Optional[tuple] = None

    # -- validity -------------------------------------------------------

    def is_current(self, provider: "Provider") -> bool:
        return (self.cap_epoch == provider.capindex.epoch
                and self.auth_epoch == provider.declass.authority_epoch
                and self.reg_epoch == provider.apps.epoch)

    # -- partition verdicts --------------------------------------------

    def read_verdicts(self, process: Any,
                      pkeys: "dict | list") -> dict[tuple, bool]:
        """Read verdicts for the given partition keys, keyed by the
        process's *label state* rather than its pid.

        ``can_read`` is a pure function of (object labels, subject
        labels, subject caps); with every participant interned, the
        verdict for a state is a theorem that can never go stale while
        the tag namespace lives (a registry restore rewires tag
        identity, but it also bumps the cap-index epoch, which retires
        this whole plan).  That makes the table safe to share across
        the fresh processes that a tainted request path spawns every
        request — exactly the reuse the pid-keyed flow cache cannot do.
        """
        slabel = process.slabel
        ilabel = process.ilabel
        caps = process.caps
        state = (slabel, ilabel, caps)
        tables = self._verdicts
        table = tables.get(state)
        if table is None:
            if len(tables) >= _MAX_STATES:
                tables.clear()
            table = tables[state] = {}
        out: dict[tuple, bool] = {}
        for pkey in pkeys:
            v = table.get(pkey)
            if v is None:
                if len(table) >= _MAX_VERDICTS:
                    table.clear()
                v = table[pkey] = can_read(pkey[0], pkey[1],
                                           slabel, ilabel, caps)
            out[pkey] = v
        return out

    def read_verdict_row(self, process: Any, pkeys: list,
                         slots: list) -> list:
        """Dense-list verdicts for array-backed partition scans (M14).

        ``slots[i]`` is the store-assigned small-int slot of partition
        ``pkeys[i]``; the returned list answers ``row[slots[i]]`` with
        the same pure ``can_read`` verdict :meth:`read_verdicts` would
        give, but the scan inner loop indexes a list instead of probing
        a dict.  The caching rationale (interned label states, epoch
        retirement via the plan itself) is identical.

        The single-entry memo keys on the *identity* of the ``slots``
        list: the store memoizes the slot arrays per where-signature
        and rebuilds them on any membership change, so the same list
        object guarantees the same slots — and a row already verified
        to cover them can be returned without the per-slot walk.
        """
        slabel = process.slabel
        ilabel = process.ilabel
        caps = process.caps
        state = (slabel, ilabel, caps)
        memo = self._row_memo
        if memo is not None and memo[1] is slots and memo[0] == state:
            return memo[2]
        rows = self._slot_rows
        row = rows.get(state)
        if row is None:
            if len(rows) >= _MAX_STATES:
                rows.clear()
            row = rows[state] = []
        slot_pkeys = self._slot_pkeys
        for i, slot in enumerate(slots):
            if slot >= len(row):
                row.extend([None] * (slot + 1 - len(row)))
            if row[slot] is None:
                pkey = pkeys[i]
                row[slot] = can_read(pkey[0], pkey[1],
                                     slabel, ilabel, caps)
                slot_pkeys[slot] = pkey
        self._row_memo = (state, slots, row)
        return row

    # -- inspection (Provider.explain / the analysis CLI) --------------

    def describe(self) -> dict[str, Any]:
        """A serializable rendering of the compiled plan."""
        verdicts = []
        merged: dict[tuple, dict[tuple, bool]] = {}
        for state, table in self._verdicts.items():
            merged.setdefault(state, {}).update(table)
        for state, row in self._slot_rows.items():
            table = merged.setdefault(state, {})
            for slot, allowed in enumerate(row):
                if allowed is not None:
                    table[self._slot_pkeys[slot]] = allowed
        for state, table in merged.items():
            verdicts.append({
                "subject": {"slabel": repr(state[0]),
                            "ilabel": repr(state[1]),
                            "caps": len(state[2])},
                "partitions": [
                    {"slabel": repr(pkey[0]), "ilabel": repr(pkey[1]),
                     "readable": allowed}
                    for pkey, allowed in sorted(
                        table.items(), key=lambda kv: repr(kv[0]))],
            })
        return {
            "app": {"name": self.app.name, "version": self.app.version,
                    "developer": self.app.developer},
            "viewer": self.viewer,
            "process_name": self.process_name,
            "launch_caps": sorted(str(c) for c in self.caps),
            "pool_key": {"name": self.pool_key[0],
                         "slabel": repr(self.pool_key[1]),
                         "ilabel": repr(self.pool_key[2]),
                         "caps": len(self.pool_key[3])},
            "egress": {
                "authority": (sorted(str(c) for c in self.authority)
                              if self.authority is not None else None),
                "precomputed": self.authority is not None,
                "allow_detail": self.allow_detail,
            },
            "epochs": {"capindex": self.cap_epoch,
                       "authority": self.auth_epoch,
                       "registry": self.reg_epoch},
            "partition_verdicts": verdicts,
        }


class PlanCache:
    """Per-(app_ref, viewer) compiled plans with epoch validity.

    Lookups are one dict probe plus three integer comparisons; a miss
    (cold pair or stale stamps) compiles a fresh plan through the same
    provider services the unplanned path uses, so a plan is always the
    fixed point of the interpretation it replaces.
    """

    def __init__(self, provider: "Provider", enabled: bool = False,
                 max_entries: int = 4096) -> None:
        self.provider = provider
        self.enabled = enabled
        self._max_entries = max_entries
        self._plans: dict[tuple[str, Optional[str]], RequestPlan] = {}
        self._stats = {"hits": 0, "misses": 0, "invalidated": 0,
                       "bypasses": 0}

    def lookup(self, app_ref: str,
               viewer: Optional[str]) -> Optional[RequestPlan]:
        """The plan for (app_ref, viewer), or None when this request
        must take the generic path.

        Bypasses (None) are decided by :func:`_bypassed`, checked on
        every lookup, hit or miss.
        Raises the same :class:`~repro.platform.errors.NoSuchApp` the
        generic path would for an unknown ref.
        """
        provider = self.provider
        key = (app_ref, viewer)
        plan = self._plans.get(key)
        if plan is not None and plan.is_current(provider):
            if _bypassed(plan.account):
                self._stats["bypasses"] += 1
                return None
            self._stats["hits"] += 1
            return plan
        if plan is not None:
            self._stats["invalidated"] += 1
        plan = self._compile(app_ref, viewer)
        if plan is None:
            self._stats["bypasses"] += 1
            return None
        self._stats["misses"] += 1
        if len(self._plans) >= self._max_entries:
            self._plans.clear()
        self._plans[key] = plan
        return plan

    def _compile(self, app_ref: str,
                 viewer: Optional[str]) -> Optional[RequestPlan]:
        p = self.provider
        # Stamp epochs *before* reading any state: a concurrent-looking
        # invalidation between reads then simply retires the plan.
        cap_epoch = p.capindex.epoch
        auth_epoch = p.declass.authority_epoch
        reg_epoch = p.apps.epoch
        app = p.apps.get(app_ref)  # NoSuchApp propagates, as unplanned
        account = p._accounts.get(viewer) if viewer is not None else None
        if _bypassed(account):
            return None
        caps = p.launch_caps(app, viewer)
        authority = None
        if not p.declass._uncacheable:
            authority = p._authority_for(viewer)
        return RequestPlan(app_ref, viewer, app, account, caps, authority,
                           cap_epoch, auth_epoch, reg_epoch)

    def invalidate_all(self, reason: str = "") -> None:
        """Drop every compiled plan (tests; epochs already make stale
        plans unreachable, so this is hygiene, not correctness)."""
        if self._plans:
            self._plans.clear()
            self._stats["invalidated"] += 1

    def stats(self) -> dict[str, int]:
        stats = dict(self._stats)
        stats["enabled"] = self.enabled
        stats["entries"] = len(self._plans)
        return stats
