"""A social-network workload exercising every language feature at once.

Used by the stress tests and the ``examples/social_network.py``
walkthrough: follows-graphs with communities, influence closure,
grouped follower sets, and negation-based recommendations.
"""

from __future__ import annotations

import random

from repro.program.rule import Atom
from repro.terms.term import Const

#: The rule set: recursion (influence), grouping (followers/communities),
#: negation (recommendations), set built-ins (audience sizes, overlap).
SOCIAL_PROGRAM = """
% influence: transitive closure of follows
influences(A, B) <- follows(B, A).
influences(A, B) <- influences(A, C), follows(B, C).

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


def social_network(
    users: int, follows_per_user: int = 4, interests: int = 5, seed: int = 0
) -> list[Atom]:
    """Random follows + interest facts, seeded and deterministic."""
    rng = random.Random(seed)
    facts: list[Atom] = []
    seen: set[tuple[int, int]] = set()
    for u in range(users):
        for _ in range(follows_per_user):
            v = rng.randrange(users)
            if v != u and (u, v) not in seen:
                seen.add((u, v))
                facts.append(
                    Atom("follows", (Const(f"u{u}"), Const(f"u{v}")))
                )
    for u in range(users):
        for t in rng.sample(range(interests), rng.randrange(1, 3)):
            facts.append(
                Atom("interest", (Const(f"u{u}"), Const(f"topic{t}")))
            )
    return facts
