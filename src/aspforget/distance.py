"""Edit distance between rules and programs.

Rule distance is the symmetric difference of heads plus that of bodies
(body literals compared with their negation kind).  Program distance
matches rules of one program injectively to rules of the other: matched
pairs cost their rule distance, unmatched rules cost their full size, and
the minimum over all partial injective matchings is taken.  As
``rule_distance(a, b) = size(a) + size(b) - 2 * shared(a, b)``, where
``shared`` counts the head atoms and body literals both rules have, a
matching costs the total size of both programs minus twice its shared
count, so the minimum is one maximum-overlap assignment.  No count is
negative, so pairing every rule of the smaller program loses nothing: a
pair sharing nothing costs what leaving both rules unmatched costs.

Three exact steps find that assignment:

1. A rule both programs have is paired with its copy, at cost 0.  If
   ``r`` is matched to ``s`` and its copy to ``t``, then
   ``|r & s| + |r & t| <= |r| + |s & t|``, so pairing ``r`` with its copy
   and ``s`` with ``t`` never lowers the overlap.
2. With ``n`` rules left on the smaller side (the rows), each row keeps
   only its ``n`` largest-overlap rules of the other side (the columns),
   and only those of positive overlap.  Some optimal assignment uses only
   those columns: at most ``n - 1`` other rows can occupy them.
3. The small core left is solved by the Hungarian method with potentials,
   in ``O(n^2 k)`` for its ``k`` columns.  Rows left unpaired take free
   columns, which share nothing with them.

Each rule enters as the bit set of its elements: one block of bits per
tag (head, then body atoms under zero, one and two ``not``), one bit per
atom in sorted order.  A size is a popcount and a shared count is the
popcount of an AND.  A mask depends only on the rule and on the atoms
of both programs, so rows and columns are ordered by mask, and the
matching does not depend on the iteration order of sets.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Tuple

from .core import Program, Rule, rule_key


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
    above).  The pairs come in ``rule_key`` order of their left rules.
    """
    common = p1.rules & p2.rules
    left, right = list(p1.rules - common), list(p2.rules - common)
    flip = len(left) > len(right)
    rows, cols = (right, left) if flip else (left, right)
    rules = rows + cols
    masks = _masks(rules)
    rule_of = dict(zip(masks, rules))
    row_masks = sorted(masks[:len(rows)])
    col_masks = sorted(masks[len(rows):])
    overlap, columns = _max_overlap(row_masks, col_masks)
    pairs = [(r, r) for r in common]
    for m, j in zip(row_masks, columns):
        row, col = rule_of[m], rule_of[col_masks[j]]
        pairs.append((col, row) if flip else (row, col))
    pairs.sort(key=lambda pair: rule_key(pair[0]))
    return sum(map(int.bit_count, masks)) - 2 * overlap, tuple(pairs)


def _masks(rules: List[Rule]) -> List[int]:
    """Each rule as a bit set of its elements: bit ``i`` of block ``t``
    stands for the ``i``-th atom of ``rules`` in sorted order under tag
    ``t``."""
    atoms = sorted(set().union(*chain.from_iterable(rules)))
    bit = dict(zip(atoms, map((1).__lshift__, range(len(atoms)))))
    w = len(atoms)
    masks = []
    for r in rules:
        m = 0
        for a in r.head:
            m |= bit[a]
        for a in r.pbody:
            m |= bit[a] << w
        for a in r.nbody:
            m |= bit[a] << 2 * w
        for a in r.nnbody:
            m |= bit[a] << 3 * w
        masks.append(m)
    return masks


def _max_overlap(rows: List[int], cols: List[int]) -> Tuple[int, List[int]]:
    """The largest total shared count of an assignment of each row mask to a
    distinct column mask (``len(rows) <= len(cols)``), and the column of
    each row.

    Only the ``n`` largest positive overlaps of each row enter the core
    (ties to the lower column), padded with zero columns up to ``n``.  A
    row placed on a padding column takes the first free column, which
    shares nothing with it, or the assignment would not be the largest.
    """
    n = len(rows)
    shared = [[(a & b).bit_count() for b in cols] for a in rows]
    core = sorted(set().union(*(
        sorted(filter(row.__getitem__, range(len(cols))),
               key=row.__getitem__, reverse=True)[:n] for row in shared)))
    pad = [0] * (n - len(core))
    placed = _assign([[row[j] for j in core] + pad for row in shared])
    column = [core[j] if j < len(core) else -1 for j in placed]
    taken = set(column)
    free = (j for j in range(len(cols)) if j not in taken)
    column = [next(free) if j < 0 else j for j in column]
    return sum(map(list.__getitem__, shared, column)), column


def _assign(weights: List[List[int]]) -> List[int]:
    """A maximum-weight assignment of every row to a distinct column (there
    are at least as many columns), as the column of each row.

    Rows enter one by one; each is placed by a shortest augmenting path on
    the reduced costs ``-weight - u[row] - v[column]``, after which the
    potentials ``u`` and ``v`` are updated so that every reduced cost stays
    non-negative and those on the matching stay zero (Jonker & Volgenant
    1987; Crouse, IEEE TAES 2016).  A free column wins a tie, which ends
    the search early.
    """
    n, width = len(weights), len(weights[0]) if weights else 0
    u, v = [0] * n, [0] * width
    row_of, col_of = [-1] * width, [-1] * n
    for start in range(n):
        dist = [float("inf")] * width
        via = [-1] * width
        remaining = list(range(width))
        reached_rows, reached_cols = [], []
        i, base, sink = start, 0, -1
        while sink < 0:
            reached_rows.append(i)
            row, ui = weights[i], u[i]
            lowest, best = float("inf"), -1
            for j in remaining:
                d = base - row[j] - ui - v[j]
                if d < dist[j]:
                    dist[j], via[j] = d, i
                d = dist[j]
                if d < lowest or d == lowest and row_of[j] < 0:
                    lowest, best = d, j
            base = lowest
            remaining.remove(best)
            reached_cols.append(best)
            if row_of[best] < 0:
                sink = best
            else:
                i = row_of[best]
        u[start] += base
        for i in reached_rows[1:]:
            u[i] += base - dist[col_of[i]]
        for j in reached_cols:
            v[j] -= base - dist[j]
        j = sink
        while True:
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of
