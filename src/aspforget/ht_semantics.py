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
from typing import Dict, FrozenSet, Iterable, Iterator, NamedTuple, Optional

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
    """HT-models over a fixed signature, indexed by there-world.

    ``by_y[Y]`` is the set of every X with <X,Y> a model.  Every key Y is
    a classical model, so Y is in ``by_y[Y]`` and no entry is empty; a
    there-world with no model has no key.
    """

    sigma: FrozenSet[str]
    by_y: Dict[FrozenSet[str], FrozenSet[FrozenSet[str]]]

    @property
    def members(self) -> FrozenSet[HTInterpretation]:
        """The models as a flat set of pairs, built on each call."""
        return frozenset(HTInterpretation(x, y)
                         for y, xs in self.by_y.items() for x in xs)

    def __and__(self, other: HTModelSet) -> HTModelSet:
        """The models of the union of both programs, over the one signature
        of both: per there-world the two share, the X common to both."""
        theirs = other.by_y
        return HTModelSet(self.sigma, {y: xs & theirs[y]
                                       for y, xs in self.by_y.items()
                                       if y in theirs})


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
    by_y = {}
    rules = p.rules
    for y in subsets(sig):
        if not all(satisfies(y, r) for r in rules):
            continue
        positive = [(r.pbody, r.head) for r in rules
                    if not (r.nbody & y) and r.nnbody <= y]
        by_y[y] = frozenset(x for x in subsets(y)
                            if all(not pb <= x or hd & x
                                   for pb, hd in positive))
    return HTModelSet(sig, by_y)


def answer_sets(p: Program, limit: Optional[int] = None
                ) -> FrozenSet[FrozenSet[str]]:
    """Answer sets: total HT-models <Y,Y> with no model <X,Y>, X strictly
    below Y."""
    return answer_sets_from_pairs(ht_models(p, limit=limit))


def answer_sets_from_pairs(models: HTModelSet) -> FrozenSet[FrozenSet[str]]:
    """The answer sets of an HT-model set: the there-worlds Y whose only
    here-world is Y itself, i.e. whose index entry holds one X."""
    return frozenset(y for y, xs in models.by_y.items() if len(xs) == 1)


def strongly_equivalent(p1: Program, p2: Program,
                        sigma: Optional[Iterable[str]] = None,
                        limit: Optional[int] = None) -> bool:
    """True iff the programs have the same HT-models over the union of
    their signatures (plus any extra atoms given), and hence the same
    answer sets in every context."""
    sig = p1.signature | p2.signature
    if sigma is not None:
        sig |= frozenset(sigma)
    return (ht_models(p1, sig, limit=limit).by_y
            == ht_models(p2, sig, limit=limit).by_y)


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
        by_y: Dict[FrozenSet[str], FrozenSet[FrozenSet[str]]] = {}
        for y, xs in models.by_y.items():
            by_y[y - vs] = by_y.get(y - vs, frozenset()) | {x - vs for x in xs}
        return HTModelSet(models.sigma - vs, by_y)
    return frozenset(frozenset(s) - vs for s in models)
