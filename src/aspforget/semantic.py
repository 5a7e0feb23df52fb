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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple

from .core import Program, Rule
from .ht_semantics import HTModelSet, check_signature, ht_models, subsets

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


def _rel(by_y, v_atoms, y) -> SetFamily:
    rel = []
    for a in subsets(v_atoms):
        ya = y | a
        if ya not in by_y:
            continue
        if any(a2 != a and (y | a2) in by_y[ya] for a2 in subsets(a)):
            continue
        rel.append(a)
    return frozenset(rel)


def _candidates(ht: HTModelSet, v: FrozenSet[str]
                ) -> Iterator[OmegaCandidate]:
    """The evidence for each Y over the signature of ``ht`` minus ``v``,
    smallest Y first."""
    by_y = ht.by_y
    v_atoms = v & ht.sigma
    for y in subsets(ht.sigma - v):
        rel = _rel(by_y, v_atoms, y)
        families = tuple((a, frozenset(x - v for x in by_y[y | a]))
                         for a in sorted(rel, key=sorted))
        distinct = {fam for _, fam in families}
        has_least = any(all(m <= other for other in distinct)
                        for m in distinct)
        yield OmegaCandidate(y, rel, families, has_least)


def rel_sets(p: Program, v: Iterable[str], y: Iterable[str],
             limit: Optional[int] = None) -> SetFamily:
    """The minimal extensions A of Y into V with Y u A a total HT-model of
    P and no smaller extension reaching the same there-world."""
    vs = frozenset(v)
    ys = frozenset(y)
    if ys & vs:
        raise ValueError("y must be disjoint from the forgotten atoms")
    return _rel(ht_models(p, limit=limit).by_y, vs & p.signature, ys)


def satisfies_omega(p: Program, v: Iterable[str],
                    limit: Optional[int] = None) -> Tuple[bool, OmegaReport]:
    """Decide the obstruction criterion and return the full evidence.

    True iff some Y over the reduced signature has a non-empty family of
    candidate model sets without a least element.
    """
    vs = frozenset(v)
    check_signature(p.signature - vs, limit)
    candidates = tuple(_candidates(ht_models(p, limit=limit), vs))
    witness = next((c.y for c in candidates if c.obstructs), None)
    return witness is not None, OmegaReport(witness is not None, witness,
                                            candidates)


def fsp_target_models(p: Program, v: Iterable[str],
                      limit: Optional[int] = None) -> HTModelSet:
    """The HT-models any ideal forgetting result must have: for each Y,
    the intersection of its candidate model sets (no candidates, no
    models)."""
    vs = frozenset(v)
    sigma2 = p.signature - vs
    check_signature(sigma2, limit)
    return HTModelSet.from_by_y(sigma2, {
        c.y: frozenset.intersection(*(fam for _, fam in c.families))
        for c in _candidates(ht_models(p, limit=limit), vs) if c.families})


def f_sem(p: Program, v: Iterable[str],
          limit: Optional[int] = None) -> Program:
    """Realize the target models directly, one rule per missing pair.

    For a non-model <X,Y> whose total pair <Y,Y> is a model the rule
    excludes exactly that pair; for a non-model <Y,Y> a constraint kills
    the whole there-world.  No simplification is applied.
    """
    target = fsp_target_models(p, v, limit=limit)
    sigma2 = target.sigma
    by_y = target.by_y
    rules = []
    for y in subsets(sigma2):
        if y not in by_y:
            rules.append(Rule(frozenset(), y, sigma2 - y, frozenset()))
            continue
        for x in subsets(y):
            if x not in by_y[y]:
                rules.append(Rule(y - x, x, sigma2 - y, y - x))
    return Program(rules, signature=sigma2)
