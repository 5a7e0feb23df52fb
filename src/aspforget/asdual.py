"""Blocker sets: the ways to prevent every rule of a set from deriving q.

``as_dual(q, rules)`` returns all blockers that, read as extra body
conditions, jointly guarantee that no rule of ``rules`` can produce ``q``:
for each rule either one of its body literals (without q) is refuted, or
one of its other head atoms absorbs the derivation.  A blocker is an
``(N, NN)`` pair of atom sets, the atoms it puts under ``not`` and under
``not not``.  Each rule offers ``not a`` for every a in P u NN and
``not not a`` for every a in N u H, q excluded: refuting ``not not a``
takes ``not a``, since three ``not`` collapse to one.

Corner cases follow from the definition: the empty rule set yields the one
empty blocker (nothing to block), and a rule with no q-free body literal
and no q-free head atom (for instance the fact ``q.``) has no option, so
the result is empty.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Tuple

from .core import Rule

Blocker = Tuple[FrozenSet[str], FrozenSet[str]]


def as_dual(q: str, rules: Iterable[Rule]) -> FrozenSet[Blocker]:
    """All blockers for ``q`` over ``rules`` as ``(N, NN)`` pairs; rules
    are expected to be in normal form.  No blocker mentions ``q``."""
    qs = frozenset([q])
    blockers = {(frozenset(), frozenset())}
    for r in rules:
        ns = (r.pbody | r.nnbody) - qs
        nns = (r.nbody | r.head) - qs
        blockers = ({(n | {a}, nn) for n, nn in blockers for a in ns}
                    | {(n, nn | {a}) for n, nn in blockers for a in nns})
    return frozenset(blockers)
