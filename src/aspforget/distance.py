"""Edit distance between rules and programs.

Rule distance is the symmetric difference of heads plus that of bodies
(body literals compared with their negation kind).  Program distance
matches rules of one program injectively to rules of the other: matched
pairs cost their rule distance, unmatched rules cost their full size, and
the minimum over all partial injective matchings is taken.  As
``rule_distance(a, b) = size(a) + size(b) - 2 * shared(a, b)``, where
``shared`` counts the head atoms and body literals both rules have, a
matching costs the total size of both programs minus twice its shared
count, so the minimum is one maximum-overlap assignment on the
``n1 x n2`` matrix of shared counts.  No count is negative, so pairing
every rule of the smaller program loses nothing: a pair sharing nothing
costs what leaving both rules unmatched costs.  Each rule enters as the
bit set of its elements (:func:`aspforget.core.element_mask`, one index
over both programs), so a size is a popcount and a shared count is the
popcount of an AND.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Program, Rule, element_mask, rule_key


def rule_size(r: Rule) -> int:
    """Head atoms plus body literals."""
    return len(r.head) + len(r.pbody) + len(r.nbody) + len(r.nnbody)


def rule_distance(r1: Rule, r2: Rule) -> int:
    """Symmetric-difference distance between two rules."""
    return (len(r1.head ^ r2.head) + len(r1.pbody ^ r2.pbody)
            + len(r1.nbody ^ r2.nbody) + len(r1.nnbody ^ r2.nnbody))


def program_distance(p1: Program, p2: Program
                     ) -> Tuple[int, Tuple[Tuple[Rule, Rule], ...]]:
    """Minimum total edit cost and one optimal matching as rule pairs.

    The cost is the total rule size minus twice the largest overlap of a
    matching, with every rule of the smaller program paired (exact, see
    above); ties are broken by sorting both rule lists first.  For the
    overlap matrix each mask is packed into ``ceil(|index| / 64)`` uint64
    words, and the shared counts are summed word by word from
    ``np.bitwise_count`` of the ANDs of every row pair.
    """
    rules1, rules2 = (sorted(p.rules, key=rule_key) for p in (p1, p2))
    n1, n2 = len(rules1), len(rules2)
    index: dict = {}
    masks1, masks2 = ([element_mask(r, index) for r in rules]
                      for rules in (rules1, rules2))
    words = -(-len(index) // 64)
    packed1, packed2 = (
        np.frombuffer(b"".join(m.to_bytes(8 * words, "little") for m in masks),
                      dtype="<u8").reshape(len(masks), words)
        for masks in (masks1, masks2))
    shared = np.zeros((n1, n2), dtype=np.int64)
    for k in range(words):
        shared += np.bitwise_count(packed1[:, k, None] & packed2[None, :, k])
    rows, cols = linear_sum_assignment(shared, maximize=True)
    total = sum(m.bit_count() for m in masks1 + masks2)
    matching = tuple((rules1[i], rules2[j]) for i, j in zip(rows, cols))
    return total - 2 * int(shared[rows, cols].sum()), matching
