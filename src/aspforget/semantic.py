"""Semantic account of forgetting: target models, the obstruction
criterion, and the counter-model construction.

For a program P and forgotten atoms V, fix some Y over the remaining
signature.  The minimal ways A of re-adding atoms of V so that Y u A is a
total HT-model of P form ``rel``; for each such A the reachable
here-parts, with V removed, form one candidate model family.  The target
models of forgetting keep exactly the here-parts common to all families.

``satisfies_omega`` detects the obstruction: some Y whose family of
candidates is non-empty but has no least member.  Exactly then no single
program over the reduced signature can reproduce the answer sets of P
under every context, and syntactic forgetting falls back to a superset
guarantee.

``f_sem`` realizes the target models by brute force, emitting one rule per
missing pair (a counter-model construction).  It is a correctness yardstick
and deliberately performs no simplification, so its output is large.

All of this reads one walk over the rows of :func:`ht_models` (worlds as
int masks, see :class:`HTModelSet`), :func:`_omega_rows`.  A family is the
row of Y u A with the V bits cut out by :func:`project`, so it is a row
over the reduced signature, and the target row is the AND of the
families.  Some family lies inside all others exactly when that AND is
itself a family, so the least family test is a membership test.  Atom
sets appear only at the edges: in the evidence of :func:`satisfies_omega`
(Y, ``rel`` and whether a least family exists) and in the rules of
:func:`f_sem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from .core import Program, Rule
from .ht_semantics import (HTModelSet, _project_row, _submasks,
                           check_signature, ht_models, project, world_masks)

SetFamily = FrozenSet[FrozenSet[str]]


@dataclass(frozen=True)
class OmegaCandidate:
    """The evidence collected for one Y over the reduced signature: its
    minimal extensions into V and whether one of their families lies
    inside all the others."""

    y: FrozenSet[str]
    rel: SetFamily
    has_least: bool

    @property
    def obstructs(self) -> bool:
        return bool(self.rel) and not self.has_least


@dataclass(frozen=True)
class OmegaReport:
    """Full record of the obstruction check."""

    witness: Optional[FrozenSet[str]]
    candidates: Tuple[OmegaCandidate, ...]


def _omega_rows(ht: HTModelSet, vmask: int
                ) -> Iterator[Tuple[int, Dict[int, int], int]]:
    """Per world Y of ``ht`` without the bits of ``vmask``, smallest Y
    first: Y; its minimal extensions A into ``vmask``, in
    :func:`_submasks` order, each mapped to its family (a row over the
    reduced worlds); and the target row, the AND of the families (0 when
    there is none).

    A is minimal when Y u A is a classical model and no A' strictly inside
    A has <Y u A', Y u A> as a model.  Y and A' are disjoint, so Y u A' is
    Y + A', and the test is one AND of the row shifted down by Y with the
    worlds strictly inside A, which are built once per walk.
    """
    rows = ht.rows
    inside = [(a, sum(1 << b for b in _submasks(a)) ^ 1 << a)
              for a in _submasks(vmask)]
    for y in _submasks((1 << len(ht.sigma)) - 1 & ~vmask):
        fams = {}
        for a, strict in inside:
            row = rows.get(y | a)
            if row is not None and not row >> y & strict:
                fams[a] = _project_row(row, vmask)
        yield y, fams, reduce(and_, fams.values()) if fams else 0


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
    candidates = tuple(
        OmegaCandidate(decode(y), frozenset(map(decode, fams)),
                       target in fams.values())
        for y, fams, target in _omega_rows(ht, masks.encode(vs & ht.sigma)))
    witness = next((c.y for c in candidates if c.obstructs), None)
    return witness is not None, OmegaReport(witness, candidates)


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
    return HTModelSet(sigma2, {project(y, vmask): target
                               for y, _, target in _omega_rows(ht, vmask)
                               if target})


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
