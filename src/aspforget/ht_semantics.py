"""Here-and-there models, reducts, answer sets, strong equivalence.

Everything here enumerates interpretations exhaustively and is meant as a
trustworthy oracle at small signature sizes, not as a solver.  A guard
rejects signatures above a configurable limit (default 12 atoms, override
via the ``limit`` parameter or the ``ASPFORGET_SIGNATURE_LIMIT`` environment
variable) so runaway enumerations fail fast with a clear error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import (Dict, FrozenSet, Iterable, Iterator, NamedTuple, Optional,
                    Set)

from .core import Program, Rule

DEFAULT_SIGNATURE_LIMIT = 12
_LIMIT_ENV = "ASPFORGET_SIGNATURE_LIMIT"


class SignatureLimitError(RuntimeError):
    """Raised when an enumeration would cover too large a signature."""


def signature_limit(limit: Optional[int] = None) -> int:
    if limit is not None:
        return limit
    env = os.environ.get(_LIMIT_ENV)
    if not env:
        return DEFAULT_SIGNATURE_LIMIT
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{_LIMIT_ENV} must be a non-negative integer, "
                         f"got {env!r}")
    return value


def check_signature(sigma: FrozenSet[str], limit: Optional[int] = None) -> None:
    cap = signature_limit(limit)
    if len(sigma) > cap:
        raise SignatureLimitError(
            f"signature has {len(sigma)} atoms, limit is {cap}; "
            f"raise the limit explicitly to accept the exponential cost")


class HTInterpretation(NamedTuple):
    """An HT-interpretation: a pair of sets with x ("here") <= y ("there")."""

    x: FrozenSet[str]
    y: FrozenSet[str]


@dataclass(frozen=True)
class HTModelSet:
    """HT-models over a fixed signature."""

    sigma: FrozenSet[str]
    members: FrozenSet[HTInterpretation]

    def __contains__(self, pair) -> bool:
        return pair in self.members

    def __len__(self) -> int:
        return len(self.members)


def subsets(atoms: Iterable[str]) -> Iterator[FrozenSet[str]]:
    """All subsets, smallest first, alphabetical within a size."""
    pool = sorted(atoms)
    for k in range(len(pool) + 1):
        for combo in combinations(pool, k):
            yield frozenset(combo)


def satisfies(interp: FrozenSet[str], r: Rule) -> bool:
    """Classical satisfaction, reading ``not`` as classical negation."""
    body_holds = (r.pbody <= interp and not (r.nbody & interp)
                  and r.nnbody <= interp)
    return not body_holds or bool(r.head & interp)


def reduct(p: Program, interp: FrozenSet[str]) -> Program:
    """The reduct: keep rules whose negative parts pass under ``interp``,
    stripped to head and positive body."""
    kept = [Rule(r.head, r.pbody, frozenset(), frozenset())
            for r in p.rules
            if not (r.nbody & interp) and r.nnbody <= interp]
    return Program(kept, signature=p.signature)


def ht_models(p: Program, sigma: Optional[Iterable[str]] = None,
              limit: Optional[int] = None) -> HTModelSet:
    """All HT-models <X,Y> of ``p`` over ``sigma`` (default: its signature).

    <X,Y> is a model iff Y satisfies the program classically and X
    satisfies the reduct relative to Y.
    """
    sig = frozenset(sigma) if sigma is not None else p.signature
    if not p.signature <= sig:
        raise ValueError("sigma must contain the program signature")
    check_signature(sig, limit)
    members = []
    rules = p.rules
    for y in subsets(sig):
        if not all(satisfies(y, r) for r in rules):
            continue
        positive = [(r.pbody, r.head) for r in rules
                    if not (r.nbody & y) and r.nnbody <= y]
        for x in subsets(y):
            if all(not pb <= x or hd & x for pb, hd in positive):
                members.append(HTInterpretation(x, y))
    return HTModelSet(sig, frozenset(members))


def answer_sets(p: Program, limit: Optional[int] = None
                ) -> FrozenSet[FrozenSet[str]]:
    """Answer sets: total HT-models <Y,Y> with no model <X,Y>, X strictly
    below Y."""
    return answer_sets_from_pairs(ht_models(p, limit=limit).members)


def by_there(pairs: Iterable[HTInterpretation]
             ) -> Dict[FrozenSet[str], Set[FrozenSet[str]]]:
    """Index HT-pairs by their there-part: Y -> the set of X with <X,Y>."""
    index: Dict[FrozenSet[str], Set[FrozenSet[str]]] = {}
    for x, y in pairs:
        index.setdefault(y, set()).add(x)
    return index


def answer_sets_from_pairs(pairs: Iterable[HTInterpretation]
                           ) -> FrozenSet[FrozenSet[str]]:
    """Extract answer sets from an HT-model set.

    Since X <= Y in every pair, Y is an answer set exactly when the only
    pair with second component Y is <Y,Y>.
    """
    return frozenset(y for y, xs in by_there(pairs).items() if xs == {y})


def strongly_equivalent(p1: Program, p2: Program,
                        sigma: Optional[Iterable[str]] = None,
                        limit: Optional[int] = None) -> bool:
    """True iff the programs have the same HT-models over the union of
    their signatures (plus any extra atoms given), and hence the same
    answer sets in every context."""
    sig = p1.signature | p2.signature
    if sigma is not None:
        sig |= frozenset(sigma)
    return (ht_models(p1, sig, limit=limit).members
            == ht_models(p2, sig, limit=limit).members)


def equivalent(p1: Program, p2: Program, limit: Optional[int] = None) -> bool:
    """Plain equivalence: equal answer sets."""
    return answer_sets(p1, limit=limit) == answer_sets(p2, limit=limit)


def v_exclusion(models, v: Iterable[str]):
    """Remove the atoms of ``v`` from every component of every member.

    Accepts an HTModelSet (returns an HTModelSet over the narrowed
    signature) or a collection of atom sets (returns a frozenset of
    frozensets).
    """
    vs = frozenset(v)
    if isinstance(models, HTModelSet):
        members = frozenset(HTInterpretation(m.x - vs, m.y - vs)
                            for m in models.members)
        return HTModelSet(models.sigma - vs, members)
    return frozenset(frozenset(s) - vs for s in models)
