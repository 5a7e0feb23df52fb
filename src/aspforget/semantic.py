"""Semantic account of forgetting: target models, the obstruction
criterion, and the counter-model construction.

For a program P and forgotten atoms V, fix some Y over the remaining
signature.  ``rel_sets`` collects the minimal ways A of re-adding atoms of
V so that Y u A is a total HT-model of P; for each such A the reachable
here-parts, with V removed, form one candidate model family.  The target
models of forgetting keep exactly the here-parts common to all candidates.

``satisfies_omega`` detects the obstruction: some Y whose family of
candidates is non-empty but has no least member.  Exactly then no single
program over the reduced signature can reproduce the answer sets of P
under every context, and syntactic forgetting falls back to a superset
guarantee.

``f_sem`` realizes the target models by brute force, emitting one rule per
missing pair (a counter-model construction).  It is a correctness yardstick
and deliberately performs no simplification, so its output is large.

All of this runs on the rows of :func:`ht_models` (worlds as int masks, see
:class:`HTModelSet`): a family is the row of Y u A with the V bits cut out
by :func:`project`, so it is a row over the reduced signature, the least
family test is a submask test, and the target models are the AND of the
families.  Atom sets appear only at the edges: in the evidence of
:func:`satisfies_omega` and :func:`rel_sets` and in the rules of
:func:`f_sem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .core import Program, Rule
from .ht_semantics import (HTModelSet, _bits, _project_row, _submasks,
                           check_signature, ht_models, project, world_masks)

SetFamily = FrozenSet[FrozenSet[str]]


@dataclass(frozen=True)
class OmegaCandidate:
    """The evidence collected for one Y over the reduced signature."""

    y: FrozenSet[str]
    rel: SetFamily
    families: Tuple[Tuple[FrozenSet[str], SetFamily], ...]
    has_least: bool

    @property
    def obstructs(self) -> bool:
        return bool(self.rel) and not self.has_least


@dataclass(frozen=True)
class OmegaReport:
    """Full record of the obstruction check."""

    satisfies: bool
    witness: Optional[FrozenSet[str]]
    candidates: Tuple[OmegaCandidate, ...]


def _extensions(rows: Dict[int, int], y: int, vmask: int
                ) -> Iterator[Tuple[int, int]]:
    """The minimal extensions A of the world ``y`` into ``vmask``, with the
    row of Y u A: Y u A is a classical model, and no A' strictly inside A
    has <Y u A', Y u A> as a model."""
    for a in _submasks(vmask):
        row = rows.get(y | a)
        if row is not None and not any(row >> (y | b) & 1
                                       for b in _submasks(a) if b != a):
            yield a, row


def _omega_rows(ht: HTModelSet, vmask: int
                ) -> Iterator[Tuple[int, List[Tuple[int, int]], bool]]:
    """Per world Y of ``ht`` without the bits of ``vmask``, smallest Y
    first: Y, its minimal extensions A each with its family (a row over
    the reduced worlds), and whether some family lies inside all others."""
    rows = ht.rows
    full = (1 << len(ht.sigma)) - 1
    for y in _submasks(full & ~vmask):
        fams = [(a, _project_row(row, vmask))
                for a, row in _extensions(rows, y, vmask)]
        has_least = any(all(m & ~o == 0 for _, o in fams) for _, m in fams)
        yield y, fams, has_least


def rel_sets(p: Program, v: Iterable[str], y: Iterable[str],
             limit: Optional[int] = None) -> SetFamily:
    """The minimal extensions A of Y into V with Y u A a total HT-model of
    P and no smaller extension reaching the same there-world."""
    vs = frozenset(v)
    ys = frozenset(y)
    if ys & vs:
        raise ValueError("y must be disjoint from the forgotten atoms")
    rows = ht_models(p, limit=limit).rows
    if not ys <= p.signature:
        return frozenset()
    masks = world_masks(p.signature)
    decode = masks.decoder()
    return frozenset(decode(a) for a, _ in _extensions(
        rows, masks.encode(ys), masks.encode(vs & p.signature)))


def satisfies_omega(p: Program, v: Iterable[str],
                    limit: Optional[int] = None) -> Tuple[bool, OmegaReport]:
    """Decide the obstruction criterion and return the full evidence.

    True iff some Y over the reduced signature has a non-empty family of
    candidate model sets without a least element.
    """
    vs = frozenset(v)
    check_signature(p.signature - vs, limit)
    ht = ht_models(p, limit=limit)
    masks = world_masks(ht.sigma)
    decode = masks.decoder()
    decode_reduced = world_masks(ht.sigma - vs).decoder()
    candidates = []
    for y, fams, has_least in _omega_rows(ht, masks.encode(vs & ht.sigma)):
        families = sorted(((decode(a), frozenset(map(decode_reduced,
                                                      _bits(fam))))
                           for a, fam in fams), key=lambda f: sorted(f[0]))
        candidates.append(OmegaCandidate(
            decode(y), frozenset(a for a, _ in families), tuple(families),
            has_least))
    witness = next((c.y for c in candidates if c.obstructs), None)
    return witness is not None, OmegaReport(witness is not None, witness,
                                            tuple(candidates))


def fsp_target_models(p: Program, v: Iterable[str],
                      limit: Optional[int] = None) -> HTModelSet:
    """The HT-models any ideal forgetting result must have: for each Y,
    the intersection of its candidate model sets (no candidates, no
    models)."""
    vs = frozenset(v)
    sigma2 = p.signature - vs
    check_signature(sigma2, limit)
    ht = ht_models(p, limit=limit)
    vmask = world_masks(ht.sigma).encode(vs & ht.sigma)
    return HTModelSet(sigma2, {
        project(y, vmask): reduce(and_, (fam for _, fam in fams))
        for y, fams, _ in _omega_rows(ht, vmask) if fams})


def f_sem(p: Program, v: Iterable[str],
          limit: Optional[int] = None) -> Program:
    """Realize the target models directly, one rule per missing pair.

    For a non-model <X,Y> whose total pair <Y,Y> is a model the rule
    excludes exactly that pair; for a non-model <Y,Y> a constraint kills
    the whole there-world.  No simplification is applied.
    """
    target = fsp_target_models(p, v, limit=limit)
    sigma2 = target.sigma
    decode = world_masks(sigma2).decoder()
    full = (1 << len(sigma2)) - 1
    rules = []
    for y in _submasks(full):
        ys, rest = decode(y), decode(full & ~y)
        row = target.rows.get(y)
        if row is None:
            rules.append(Rule(frozenset(), ys, rest, frozenset()))
            continue
        for x in _submasks(y):
            if not row >> x & 1:
                gap = decode(y & ~x)
                rules.append(Rule(gap, decode(x), rest, gap))
    return Program(rules, signature=sigma2)
