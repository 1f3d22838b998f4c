"""The benchmark's deterministic request generator and its model of the world.

Everything here is a pure function of the workload seed: the friend
graph (seeded Watts-Strogatz), each user's canary string, the seed
posts, Zipf viewer popularity and the operation stream.  Every
operation carries the response the model predicts for it, so the
checker can judge the program without asking it anything.  The
program under test only ever sees the HTTP requests built from these
operations.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterator, Optional

from repro.workloads.social import WATTS_STROGATZ, make_social_world

MEAN_DEGREE = 4
WORLD_SEED = 7
FORBIDDEN = {"error": "not authorized"}
NO_SUCH_POST = {"error": "no such post"}


class Op:
    """One client operation and the outcome the model predicts.

    ``kind`` is one of ``own``, ``friend``, ``stranger`` and ``feed``
    (reads), ``post`` and ``edit`` (writes), ``policy`` (a friend-list
    edit through ``update_declassifier_config``) and ``sync`` (one
    ``sync_all`` pass).  A response matches when its status equals
    ``status`` and its body equals ``body``, or any of ``alts`` when
    ``body`` is None.  ``snapshot`` is the operator's incremental
    snapshot of every provider.  ``allowed`` names the users whose
    canaries the viewer may receive.
    """

    __slots__ = ("kind", "viewer", "path", "params", "status", "body",
                 "alts", "allowed")

    def __init__(self, kind: str, viewer: str = "", path: str = "",
                 params: Optional[dict] = None, status: int = 200,
                 body: Optional[dict] = None, alts: tuple = (),
                 allowed: frozenset = frozenset()) -> None:
        self.kind = kind
        self.viewer = viewer
        self.path = path
        self.params = params or {}
        self.status = status
        self.body = body
        self.alts = alts
        self.allowed = allowed

    def key(self) -> str:
        return repr((self.kind, self.viewer, self.path,
                     sorted(self.params.items())))


def stream_digest(ops: Iterator[Op], n: int) -> str:
    """SHA-256 over the first ``n`` operations of a stream."""
    h = hashlib.sha256()
    for i, op in enumerate(ops):
        if i >= n:
            break
        h.update(op.key().encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class World:
    """Users, friends, canaries, seed posts and viewer popularity.

    With ``shard_of`` the friend graph keeps only edges between users on
    the same shard, and strangers are drawn from the viewer's shard, so
    no request needs another shard's data.
    """

    def __init__(self, n_users: int, posts_per_user: int, seed: int,
                 zipf_skew: float,
                 shard_of: Optional[Callable[[str], int]] = None) -> None:
        social = make_social_world(n_users, WATTS_STROGATZ, MEAN_DEGREE,
                                   photos_per_user=0, posts_per_user=0,
                                   seed=WORLD_SEED)
        self.users: list[str] = list(social.users)
        self.friends: dict[str, frozenset] = {}
        for u in self.users:
            fr = social.friends[u]
            if shard_of is not None:
                fr = {f for f in fr if shard_of(f) == shard_of(u)}
            self.friends[u] = frozenset(fr)
        self.peers: dict[str, list[str]] = {}
        for u in self.users:
            self.peers[u] = [p for p in self.users if p != u and (
                shard_of is None or shard_of(p) == shard_of(u))]
        self.canary = {u: "cnry" + hashlib.sha256(
            f"{seed}/{u}".encode()).hexdigest()[:12] for u in self.users}
        self.owner_of = {c: u for u, c in self.canary.items()}
        rng = random.Random(f"posts/{seed}")
        self.titles: dict[str, list[str]] = {}
        self.bodies: dict[tuple[str, str], str] = {}
        for u in self.users:
            self.titles[u] = []
            for k in range(posts_per_user):
                title = self.title_for(u, k)
                self.titles[u].append(title)
                self.bodies[(u, title)] = (
                    f"{self.canary[u]} private post {k} of {u}: "
                    f"{rng.getrandbits(32):08x}")
        order = list(self.users)
        random.Random(f"zipf/{WORLD_SEED}").shuffle(order)
        self.by_popularity = order
        self.popularity = [1.0 / (rank + 1) ** zipf_skew
                           for rank in range(len(order))]

    def title_for(self, user: str, k: int) -> str:
        return f"p{k}-{self.canary[user]}"

    def sorted_friends(self, user: str) -> list[str]:
        return sorted(self.friends[user])

    def stranger(self, viewer: str, rng: random.Random) -> Optional[str]:
        peers = self.peers[viewer]
        for _ in range(64):
            u = rng.choice(peers)
            if u not in self.friends[viewer]:
                return u
        return None

    def viewers(self, rng: random.Random, n: int) -> list[str]:
        return rng.choices(self.by_popularity, weights=self.popularity, k=n)


def _read(author: str, title: str, body: str) -> dict:
    return {"author": author, "title": title, "body": body}


def _blog_read(viewer: str, author: str, title: str, status: int,
               body: Optional[dict], alts: tuple, allowed: frozenset,
               kind: str) -> Op:
    return Op(kind, viewer, "/app/blog/read",
              {"author": author, "title": title}, status, body, alts,
              allowed)


def read_ops(world: World, mix: dict[str, float], seed: int
             ) -> Iterator[Op]:
    """The endless labeled-read stream: own, friend, stranger, feed.

    The model is static (no writes, no policy edits), so expectations
    come straight from the seed posts.
    """
    rng = random.Random(f"reads/{seed}")
    kinds = list(mix)
    weights = [mix[k] for k in kinds]
    while True:
        for viewer, kind in zip(world.viewers(rng, 1024),
                                rng.choices(kinds, weights, k=1024)):
            yield _read_op(world, kind, viewer, rng)


def _read_op(world: World, kind: str, viewer: str,
             rng: random.Random) -> Op:
    friends = world.sorted_friends(viewer)
    if kind == "friend" and friends:
        author = rng.choice(friends)
    elif kind == "stranger":
        author = world.stranger(viewer, rng)
        if author is None:
            kind, author = "own", viewer
        else:
            title = rng.choice(world.titles[author])
            return _blog_read(viewer, author, title, 403, FORBIDDEN, (),
                              frozenset(), kind)
    elif kind == "feed":
        feed = [{"author": f, "title": t}
                for f in friends for t in world.titles[f]]
        return Op(kind, viewer, "/app/social/feed", {}, 200,
                  {"feed": feed}, (), frozenset(friends))
    else:
        kind, author = "own", viewer
    title = rng.choice(world.titles[author])
    return _blog_read(viewer, author, title, 200,
                      _read(author, title, world.bodies[(author, title)]),
                      (), frozenset([author]), kind)


class FederatedModel:
    """The write workload's evolving model: posts, edits, friend-list
    edits and what each provider can show after each sync pass.

    Sync passes, operator snapshots and friend-list edits come at fixed
    positions in the stream (one sync pass per ``sync_every``
    operations, a snapshot after every ``snapshot_every`` sync passes,
    a friend-list edit per ``policy_every`` operations); reads, posts
    and edits are drawn from ``mix``.

    The model keeps each post's rows on its home provider and on the
    mirror, as the federation's documented row semantics make them:
    the row mirror is append-only and keyed by content, so a sync
    pass adds to each side the rows of the other whose content it
    lacks (with their multiplicity) and an edit, which updates every
    row of the post at home, touches as many rows as the home holds.
    An edited post that had been synced therefore doubles its rows on
    the next pass (see ``ProviderLink._pump_rows``).

    Reads at a post's home must return its latest body.  A read of a
    mirrored author's post on the viewer's provider returns
    ``no such post`` until a sync pass has carried it, and afterwards
    the body of one of the rows the mirror holds (mirrors may lag;
    they may never invent content).
    """

    def __init__(self, world: World, home_of: Callable[[str], int],
                 mix: dict[str, float], sync_every: int, policy_every: int,
                 snapshot_every: int, edits_per_post: int, seed: int
                 ) -> None:
        self.world = world
        self.home = {u: home_of(u) for u in world.users}
        self.mix = mix
        self.sync_every = sync_every
        self.policy_every = policy_every
        self.snapshot_every = snapshot_every
        self.edits_per_post = edits_per_post
        self.rng = random.Random(f"writes/{seed}")
        self.titles = {u: list(t) for u, t in world.titles.items()}
        self.bodies = dict(world.bodies)
        self.edits: dict[tuple[str, str], int] = {}
        #: post -> row bodies on its home provider and on the mirror;
        #: the set-up sync passes mirror every seed post
        self.home_rows = {p: [b] for p, b in self.bodies.items()}
        self.mirror_rows = {p: [b] for p, b in self.bodies.items()}
        self.dirty: set[tuple[str, str]] = set()
        self.policy = {u: set(world.friends[u]) for u in world.users}

    def ops(self) -> Iterator[Op]:
        rng = self.rng
        kinds = list(self.mix)
        weights = [self.mix[k] for k in kinds]
        n = 0
        while True:
            for viewer, kind in zip(self.world.viewers(rng, 256),
                                    rng.choices(kinds, weights, k=256)):
                n += 1
                if n % self.policy_every == self.policy_every // 2 \
                        and self.world.friends[viewer]:
                    kind = "policy"
                yield self._op(kind, viewer)
                if n % self.sync_every == 0:
                    yield self._sync()
                    if n % (self.sync_every * self.snapshot_every) == 0:
                        yield Op("snapshot")

    def _sync(self) -> Op:
        # after a pass both sides hold the same contents, so only
        # posts written since the last pass can change
        for post in self.dirty:
            home, mirror = self.home_rows[post], self.mirror_rows[post]
            on_home, on_mirror = set(home), set(mirror)
            self.mirror_rows[post] = mirror + [b for b in home
                                               if b not in on_mirror]
            self.home_rows[post] = home + [b for b in mirror
                                           if b not in on_home]
        self.dirty.clear()
        return Op("sync")

    def rows(self, author: str, at_home: bool) -> list[dict]:
        """The blog rows the author's posts should have on their home
        provider (``at_home``) or on the mirror."""
        held = self.home_rows if at_home else self.mirror_rows
        return [{"author": author, "title": t, "body": b}
                for t in self.titles[author]
                for b in held[(author, t)]]

    def _op(self, kind: str, viewer: str) -> Op:
        world, rng = self.world, self.rng
        friends = world.sorted_friends(viewer)
        if kind == "policy":
            target = rng.choice(friends)
            policy = self.policy[viewer]
            policy.symmetric_difference_update({target})
            return Op("policy", viewer, params={"friends": sorted(policy)})
        if kind == "edit":
            # a size bound, not a filter: each edit+sync round doubles a
            # post's rows, so unbounded edits make a seed's work depend
            # on how often it re-edits its hottest post
            titles = [t for t in self.titles[viewer]
                      if self.edits.get((viewer, t), 0)
                      < self.edits_per_post]
            if titles:
                title = rng.choice(titles)
                post = (viewer, title)
                self.edits[post] = self.edits.get(post, 0) + 1
                body = (f"{world.canary[viewer]} edit {self.edits[post]} "
                        f"of {title}: {rng.getrandbits(32):08x}")
                self.bodies[post] = body
                touched = len(self.home_rows[post])
                self.home_rows[post] = [body] * touched
                self.dirty.add(post)
                return Op("edit", viewer, "/app/blog/edit",
                          {"author": viewer, "title": title, "body": body},
                          200, {"edited": touched}, (),
                          frozenset([viewer]))
            kind = "post"
        if kind == "post":
            title = world.title_for(viewer, len(self.titles[viewer]))
            body = (f"{world.canary[viewer]} new post {title}: "
                    f"{rng.getrandbits(32):08x}")
            self.titles[viewer].append(title)
            self.bodies[(viewer, title)] = body
            self.home_rows[(viewer, title)] = [body]
            self.mirror_rows[(viewer, title)] = []
            self.dirty.add((viewer, title))
            return Op("post", viewer, "/app/blog/post",
                      {"title": title, "body": body}, 200,
                      {"posted": title}, (), frozenset([viewer]))
        if kind == "stranger":
            author = world.stranger(viewer, rng)
            if author is not None:
                title = rng.choice(self.titles[author])
                return _blog_read(viewer, author, title, 403, FORBIDDEN,
                                  (), frozenset(), kind)
        author = viewer
        if kind == "friend" and friends:
            author = rng.choice(friends)
        title = rng.choice(self.titles[author])
        post = (author, title)
        read_kind = "own" if author == viewer else "friend"
        if author != viewer and viewer not in self.policy[author]:
            return _blog_read(viewer, author, title, 403, FORBIDDEN, (),
                              frozenset(), read_kind)
        if self.home[author] == self.home[viewer]:
            return _blog_read(viewer, author, title, 200,
                              _read(author, title, self.bodies[post]), (),
                              frozenset([author]), read_kind)
        mirrored = dict.fromkeys(self.mirror_rows[post])
        if not mirrored:
            return _blog_read(viewer, author, title, 200, NO_SUCH_POST, (),
                              frozenset(), read_kind)
        return _blog_read(viewer, author, title, 200, None,
                          tuple(_read(author, title, b) for b in mirrored),
                          frozenset([author]), read_kind)
