"""Here-and-there models, answer sets, strong equivalence.

Interpretations are int masks over ``sorted(sigma)``, atom i being bit i.
An :class:`HTModelSet` stores, per classical model Y, one int whose bit X
is set iff <X,Y> is an HT-model.  :func:`ht_models` computes those rows
with whole-signature bit operations, one pass over the rules for the
classical models and one AND per reduct rule for each row, so its cost
follows the number of classical models rather than the 3^n pairs.  The
exhaustive semantics still decide everything, and the module is meant as
a trustworthy oracle at small signature sizes, not as a solver.  A guard
rejects signatures above a configurable limit (default 12 atoms, override
via the ``limit`` parameter or the ``ASPFORGET_SIGNATURE_LIMIT`` environment
variable) so runaway enumerations fail fast with a clear error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import (Dict, FrozenSet, Iterable, Iterator, List, NamedTuple,
                    Optional)

from .core import Program

DEFAULT_SIGNATURE_LIMIT = 12
_LIMIT_ENV = "ASPFORGET_SIGNATURE_LIMIT"


class SignatureLimitError(RuntimeError):
    """Raised when an enumeration would cover too large a signature."""


def signature_limit(limit: Optional[int] = None,
                    default: int = DEFAULT_SIGNATURE_LIMIT) -> int:
    """The signature guard: ``limit`` if given, else the value of the
    ``ASPFORGET_SIGNATURE_LIMIT`` environment variable, else ``default``."""
    if limit is not None:
        return limit
    env = os.environ.get(_LIMIT_ENV)
    if not env:
        return default
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


# The worlds of atom i within one byte, for i < 3: bit m set iff m has bit i.
_LOW_PATTERNS = (0xAA, 0xCC, 0xF0)


class WorldMasks:
    """The world masks of one signature: atom i of ``sorted(sigma)`` is
    bit i, and world m is the set of atoms whose bits m has.

    ``with_[a]`` (``without[a]``) is a 2^n-bit int whose bit m is set iff
    world m contains (lacks) ``a``.  They are built by repeating a byte
    pattern, because building them by big-int arithmetic is quadratic.
    """

    def __init__(self, sigma: FrozenSet[str]):
        atoms = sorted(sigma)
        self.full = (1 << (1 << len(atoms))) - 1
        nbytes = max(1, (1 << len(atoms)) >> 3)
        self.bit: Dict[str, int] = {}
        self.with_: Dict[str, int] = {}
        self.without: Dict[str, int] = {}
        for i, a in enumerate(atoms):
            if i < 3:
                pattern = bytes([_LOW_PATTERNS[i]])
            else:
                half = 1 << (i - 3)
                pattern = bytes(half) + b"\xff" * half
            mask = int.from_bytes(pattern * (nbytes // len(pattern)),
                                  "little") & self.full
            self.bit[a] = 1 << i
            self.with_[a] = mask
            self.without[a] = self.full ^ mask

    def encode(self, atoms: Iterable[str]) -> int:
        bit = self.bit
        return sum(bit[a] for a in atoms)

    def decoder(self):
        """A function from world mask to frozenset, memoized per call."""
        items = tuple(self.bit.items())
        memo: Dict[int, FrozenSet[str]] = {}

        def decode(m: int) -> FrozenSet[str]:
            s = memo.get(m)
            if s is None:
                s = memo[m] = frozenset(a for a, b in items if m & b)
            return s
        return decode


@lru_cache(maxsize=64)
def world_masks(sigma: FrozenSet[str]) -> WorldMasks:
    """The shared :class:`WorldMasks` of ``sigma``."""
    return WorldMasks(sigma)


def _bits(m: int) -> Iterator[int]:
    """The positions of the set bits of ``m``, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _submasks(m: int) -> Iterator[int]:
    """The submasks of ``m``, smallest first, in atom order within a size
    (the order of ``itertools.combinations`` over its bits)."""
    bits = [1 << i for i in _bits(m)]
    for k in range(len(bits) + 1):
        for combo in combinations(bits, k):
            yield sum(combo)


@dataclass(frozen=True)
class HTModelSet:
    """HT-models over a fixed signature, indexed by there-world.

    Worlds are masks over ``sorted(sigma)``.  ``rows[Y]`` is a bitset over
    here-worlds: bit X is set iff <X,Y> is a model.  Every key Y is a
    classical model, so bit Y is set in ``rows[Y]``, and every set bit X
    is a submask of Y; a there-world with no model has no key.
    ``members`` decodes the rows into a set of pairs, ``ordered_pairs``
    into a size-ordered stream, ``pairs_by_atoms`` into sorted lists.
    """

    sigma: FrozenSet[str]
    rows: Dict[int, int]

    @property
    def members(self) -> FrozenSet[HTInterpretation]:
        """The models as a flat set of pairs, built on each call."""
        decode = world_masks(self.sigma).decoder()
        return frozenset(HTInterpretation(decode(x), decode(y))
                         for y, row in self.rows.items() for x in _bits(row))

    def ordered_pairs(self) -> Iterator[HTInterpretation]:
        """The models one at a time, Y in :func:`_submasks` order and X in
        that order within each Y."""
        decode = world_masks(self.sigma).decoder()
        rows = self.rows
        for y in _submasks((1 << len(self.sigma)) - 1):
            row = rows.get(y)
            if row is None:
                continue
            for x in _submasks(y):
                if row >> x & 1:
                    yield HTInterpretation(decode(x), decode(y))

    def pairs_by_atoms(self) -> List[List[List[str]]]:
        """The models as sorted ``[sorted(x), sorted(y)]`` lists, without a
        sort.  Atom i is bit i, so the worlds in prefix order (the empty
        world, those with atom 0, the rest) are in the order of their
        sorted atom lists.  Each here-world collects its there-worlds in
        that order, and all pairs share one label list per world."""
        order = [0]
        for i in reversed(range(len(self.sigma))):
            order = [0] + [w | 1 << i for w in order] + order[1:]
        decode = world_masks(self.sigma).decoder()
        labels = {w: sorted(decode(w)) for w in order}
        there = {w: [] for w in order}
        for y in order:
            for x in _bits(self.rows.get(y, 0)):
                there[x].append(labels[y])
        return [[labels[x], ly] for x in order for ly in there[x]]

    def __and__(self, other: HTModelSet) -> HTModelSet:
        """The models of the union of both programs, over the one signature
        of both: per there-world the two share, the AND of the rows."""
        theirs = other.rows
        return HTModelSet(self.sigma, {y: row & theirs[y]
                                       for y, row in self.rows.items()
                                       if y in theirs})


def ht_models(p: Program, sigma: Optional[Iterable[str]] = None,
              limit: Optional[int] = None) -> HTModelSet:
    """All HT-models <X,Y> of ``p`` over ``sigma`` (default: its signature).

    <X,Y> is a model iff Y satisfies the program classically and X
    satisfies the reduct relative to Y.  Per rule, ``xv`` holds the worlds
    that violate its reduct (positive body true, head false) and ``yv``
    those that violate it classically (``xv`` with the negative parts
    passing).  The classical models are the worlds in no ``yv``; the row
    of one is its submasks outside the ``xv`` of each rule in its reduct.
    """
    sig = frozenset(sigma) if sigma is not None else p.signature
    if not p.signature <= sig:
        raise ValueError("sigma must contain the program signature")
    check_signature(sig, limit)
    worlds = world_masks(sig)
    with_, without, encode = worlds.with_, worlds.without, worlds.encode
    classical = worlds.full
    reducts = []
    for r in p.rules:
        xv = worlds.full
        for a in r.pbody:
            xv &= with_[a]
        for a in r.head:
            xv &= without[a]
        yv = xv
        for a in r.nnbody:
            yv &= with_[a]
        for a in r.nbody:
            yv &= without[a]
        classical &= ~yv
        reducts.append((encode(r.nbody), encode(r.nnbody), ~xv))
    outside = [(worlds.bit[a], without[a]) for a in worlds.bit]
    rows = {}
    for y in _bits(classical):
        row = (2 << y) - 1
        for b, out in outside:
            if not y & b:
                row &= out
        for nb, nnb, keep in reducts:
            if not nb & y and nnb & y == nnb:
                row &= keep
        rows[y] = row
    return HTModelSet(sig, rows)


def answer_sets(p: Program, limit: Optional[int] = None
                ) -> FrozenSet[FrozenSet[str]]:
    """Answer sets: total HT-models <Y,Y> with no model <X,Y>, X strictly
    below Y."""
    return answer_sets_from_pairs(ht_models(p, limit=limit))


def answer_sets_from_pairs(models: HTModelSet) -> FrozenSet[FrozenSet[str]]:
    """The answer sets of an HT-model set: the there-worlds Y whose row
    holds Y alone."""
    decode = world_masks(models.sigma).decoder()
    return frozenset(decode(y) for y, row in models.rows.items()
                     if row == 1 << y)


def strongly_equivalent(p1: Program, p2: Program,
                        sigma: Optional[Iterable[str]] = None,
                        limit: Optional[int] = None) -> bool:
    """True iff the programs have the same HT-models over the union of
    their signatures (plus any extra atoms given), and hence the same
    answer sets in every context."""
    sig = p1.signature | p2.signature
    if sigma is not None:
        sig |= frozenset(sigma)
    return (ht_models(p1, sig, limit=limit).rows
            == ht_models(p2, sig, limit=limit).rows)


def equivalent(p1: Program, p2: Program, limit: Optional[int] = None) -> bool:
    """Plain equivalence: equal answer sets."""
    return answer_sets(p1, limit=limit) == answer_sets(p2, limit=limit)

