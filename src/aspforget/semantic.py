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
itself a family, so the least family test is a membership test.  The
verdict alone, :func:`_obstructed`, serves ``harness.verify_sp`` on its
own model index.  Atom sets appear only in the evidence of
:func:`satisfies_omega` and in the rules of :func:`f_sem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from .core import Program, Rule
from .ht_semantics import (HTModelSet, _bits, _submasks, ht_models,
                           world_masks)

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
        return _obstructs(self.rel, self.has_least)


@dataclass(frozen=True)
class OmegaReport:
    """Full record of the obstruction check."""

    witness: Optional[FrozenSet[str]]
    candidates: Tuple[OmegaCandidate, ...]


def project(m: int, vmask: int) -> int:
    """Cut the bits of ``vmask`` out of the world ``m``.  The bits left
    keep their order, so a mask over ``sorted(sigma)`` becomes one over
    ``sorted(sigma - V)``."""
    while vmask:
        i = vmask.bit_length() - 1
        low = (1 << i) - 1
        m = m & low | m >> 1 & ~low
        vmask &= low
    return m


def _project_row(row: int, vmask: int) -> int:
    """The here-worlds of ``row`` with the bits of ``vmask`` cut out, as a
    row over the reduced worlds."""
    out = 0
    for x in _bits(row):
        out |= 1 << project(x, vmask)
    return out


def _obstructs(rel, has_least: bool) -> bool:
    """Y obstructs: it has minimal extensions, but no least family."""
    return bool(rel) and not has_least


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


def _obstructed(ht: HTModelSet, vmask: int) -> bool:
    """The obstruction criterion on ``ht``, forgetting the bits of ``vmask``."""
    return any(_obstructs(fams, target in fams.values())
               for _, fams, target in _omega_rows(ht, vmask))


def _models_and_vmask(p: Program, v: Iterable[str], limit: Optional[int]):
    """The HT-models of ``p`` (whose guard covers all of Σ), its signature
    without ``v`` and the mask of ``v`` over the worlds of the models."""
    vs = frozenset(v)
    ht = ht_models(p, limit=limit)
    return ht, p.signature - vs, world_masks(ht.sigma).encode(vs & ht.sigma)


def satisfies_omega(p: Program, v: Iterable[str],
                    limit: Optional[int] = None) -> Tuple[bool, OmegaReport]:
    """Decide the obstruction criterion and return the full evidence.

    True iff some Y over the reduced signature has a non-empty family of
    candidate model sets without a least element.
    """
    ht, _, vmask = _models_and_vmask(p, v, limit)
    decode = world_masks(ht.sigma).decoder()
    candidates = tuple(
        OmegaCandidate(decode(y), frozenset(map(decode, fams)),
                       target in fams.values())
        for y, fams, target in _omega_rows(ht, vmask))
    witness = next((c.y for c in candidates if c.obstructs), None)
    return witness is not None, OmegaReport(witness, candidates)


def fsp_target_models(p: Program, v: Iterable[str],
                      limit: Optional[int] = None) -> HTModelSet:
    """The HT-models any ideal forgetting result must have: for each Y,
    the intersection of its candidate model sets (no candidates, no
    models)."""
    ht, sigma2, vmask = _models_and_vmask(p, v, limit)
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
