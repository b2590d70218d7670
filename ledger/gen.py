"""Program texts, workload sizes and the seeded input generator.

Nothing here imports ``repro``: the program under test receives only
what this module generates.  The rule texts are copies of
``repro.workloads.social`` so a change there cannot silently change
what the ledger measures.

The follows graph is *degree-regular*: it is the union of ``follows``
random permutations, so every user follows exactly ``follows`` others
and has exactly ``follows`` followers.  That is a deliberate departure
from ``repro.workloads.social_network`` (independent random targets):
there about 2 % of users have no follower, their ``influences`` answer
is empty, and an op on such a user is a second, cheaper mode under the
workload's median.  With regular degrees every op of a workload does
the same kind and amount of work, and fact counts (``users * follows``
edges, ``users ** 2`` closure facts on a strongly connected graph) do
not move with the seed.
"""

from __future__ import annotations

import random

CLOSURE_RULES = """
% influence: transitive closure of follows
influences(A, B) <- follows(B, A).
influences(A, B) <- influences(A, C), follows(B, C).
"""

SETS_RULES = """
% follower sets and audience sizes
followers(U, <F>) <- follows(F, U).
audience(U, N) <- followers(U, S), card(S, N).

% communities: users sharing an interest, as sets
community(T, <U>) <- interest(U, T).

% overlap between two communities
overlap(T1, T2, S) <- community(T1, S1), community(T2, S2), T1 < T2,
                      intersection(S1, S2, S).

% recommend B to A: a followee's followee A doesn't follow yet
candidate(A, B) <- follows(A, M), follows(M, B), A != B.
recommend(A, B) <- candidate(A, B), ~follows(A, B).
"""

SOCIAL_RULES = CLOSURE_RULES + SETS_RULES

PROGRAMS = {"social": SOCIAL_RULES, "closure": CLOSURE_RULES, "sets": SETS_RULES}

#: the predicate a batch op queries, ``? pred(u, X).`` for a cycling user
BATCH_PRED = {"closure": "influences", "sets": "recommend"}

#: Workload sizes.  Tuned once by hand (see README "Sizes"); never
#: auto-tuned at run time.  ``warmup`` ops are run and discarded before
#: the measured phase, ``setups`` is how many times set-up is repeated
#: (``setup_s`` is their median).
WORKLOADS = {
    "serve_hot": dict(
        program="social", users=200, follows=4, topics=5, hot=8,
        setups=2,  # warmup is 2 * hot, see sizes_of
    ),
    "serve_cold": dict(
        program="social", users=200, follows=4, topics=5,
        warmup=20, setups=2,
    ),
    "serve_write": dict(
        program="social", users=40, follows=4, topics=5,
        warmup=5, setups=3,
    ),
    "batch_closure": dict(
        program="closure", users=130, follows=4, topics=5,
        warmup=3, setups=5,
    ),
    "batch_sets": dict(
        program="sets", users=350, follows=6, topics=40,
        warmup=3, setups=5,
    ),
}

#: Why each workload exists (also the ``why`` lines of BENCHMARK.json).
WHY = {
    "serve_hot": "profile pages of 8 hot users: 24 keys fit the answer cache, "
    "so gateway, protocol and cache do the work and the engine none",
    "serve_cold": "profile pages cycling through all users: 600 keys overflow "
    "the 256-entry cache, so every read is on-demand magic + plan/exec",
    "serve_write": "follow, read, unfollow, read: maintenance, WAL fsync, "
    "precise invalidation and cache refill beside the reads that must see them",
    "batch_closure": "fresh session, load, model, query on the recursive "
    "influences closure: fixpoint, join kernels, relations and interning",
    "batch_sets": "the same op on the grouping, negation and set-builtin rules: "
    "the paper's signature <X> operation, no recursion",
}

#: The reduced instance every isolated layer probe of a traced run
#: uses (full social program), identical for all workloads.
PROBE = dict(program="social", users=80, follows=4, topics=5)

#: ``--quick`` sizes: same shapes, seconds instead of minutes.
QUICK = dict(users=24, follows=3, topics=4, hot=4, warmup=2, setups=1)


def sizes_of(workload: str, quick: bool = False) -> dict:
    sizes = dict(WORKLOADS[workload])
    if quick:
        sizes.update({k: v for k, v in QUICK.items() if k in sizes})
    if "hot" in sizes:
        # the hot stream opens with every hot user twice: all of it warm-up
        sizes["warmup"] = 2 * sizes["hot"]
    return sizes


def user(i: int) -> str:
    return f"u{i}"


def regular_follows(users: int, k: int, rng: random.Random) -> list[tuple[int, int]]:
    """``users * k`` distinct edges, in- and out-degree exactly ``k``.

    Each round is a random permutation repaired by swaps until it has
    no fixed point and repeats no earlier edge.
    """
    if k >= users:
        raise ValueError(f"cannot give {users} users {k} distinct followees")
    edges: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for _ in range(k):
        perm = list(range(users))
        rng.shuffle(perm)

        def bad(u: int) -> bool:
            return perm[u] == u or (u, perm[u]) in edges

        todo = [u for u in range(users) if bad(u)]
        while todo:
            u = todo.pop()
            if not bad(u):
                continue
            v = rng.randrange(users)
            perm[u], perm[v] = perm[v], perm[u]
            todo.extend(w for w in (u, v) if bad(w))
        for u, v in enumerate(perm):
            edges.add((u, v))
            out.append((u, v))
    return out


class Dataset:
    """One seeded instance: follows edges, interests and op streams."""

    def __init__(self, seed: int, users: int, follows: int, topics: int, **_):
        self.seed = seed
        self.users = users
        rng = random.Random(f"ledger-data-{seed}")
        self.edges = regular_follows(users, follows, rng)
        # even users take two topics, odd users one: a fixed fact count
        self.interests = [
            (u, t)
            for u in range(users)
            for t in rng.sample(range(topics), 2 - u % 2)
        ]

    def rows(self) -> list[tuple[str, tuple[str, ...]]]:
        """The EDB as ``(pred, (symbol, ...))`` rows."""
        rows = [("follows", (user(u), user(v))) for u, v in self.edges]
        rows += [("interest", (user(u), f"topic{t}")) for u, t in self.interests]
        return rows

    def text(self) -> bytes:
        """The EDB in concrete syntax (what the determinism test hashes)."""
        return "".join(
            f"{pred}({', '.join(args)}).\n" for pred, args in self.rows()
        ).encode()

    # -- op streams: endless, a function of the seed alone ----------------

    def hot_users(self, hot: int) -> list[int]:
        return random.Random(f"ledger-hot-{self.seed}").sample(range(self.users), hot)

    def hot_stream(self, hot: int):
        """Warm-up touches every hot user twice; then uniform draws."""
        rng = random.Random(f"ledger-ops-{self.seed}")
        users = self.hot_users(hot)
        yield from users
        yield from users
        while True:
            yield rng.choice(users)

    def cold_stream(self):
        """A seeded permutation of all users, cycled."""
        order = list(range(self.users))
        random.Random(f"ledger-ops-{self.seed}").shuffle(order)
        while True:
            yield from order

    def write_stream(self):
        """Pairs ``(a, b)``, ``a != b``, that are not already edges."""
        rng = random.Random(f"ledger-ops-{self.seed}")
        present = set(self.edges)
        while True:
            a, b = rng.sample(range(self.users), 2)
            if (a, b) not in present:
                yield a, b
