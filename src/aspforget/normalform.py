"""Normal form for rules and programs.

A program is in normal form when every rule mentions each atom at most once
in the body (as ``a``, ``not a`` or ``not not a``), no head atom recurs in
the positive or negated body, and no rule is strictly subsumed by another.
The transformation applies, in order:

1. drop tautological rules,
2. drop ``not not a`` from a body that already contains ``a``,
3. drop head atoms that occur negated in the body (this may turn a rule
   into a constraint, which is kept),
4. drop rules strictly subsumed by a remaining rule.

Each step preserves the HT-models of the program.
"""

from __future__ import annotations

from typing import Iterable, List

from .core import Program, Rule, is_tautological
from .distance import rule_size


def is_normal_form(p: Program) -> bool:
    """True iff :func:`normal_form` leaves the rules of ``p`` as they are.

    Each step changes the rule set when it applies: a tautology is
    dropped, a rewrite replaces a rule by a strictly smaller one, and a
    subsumed rule is removed.
    """
    return normal_form(p) == p


def normal_form(p: Program) -> Program:
    """The normal form of ``p``; signature is preserved."""
    rewritten = [Rule(r.head - r.nbody, r.pbody, r.nbody, r.nnbody - r.pbody)
                 if r.head & r.nbody or r.nnbody & r.pbody else r
                 for r in p.rules if not is_tautological(r)]
    return Program(_minimal_rules(rewritten), signature=p.signature)


def _minimal_rules(rules: Iterable[Rule]) -> List[Rule]:
    """Keep exactly the rules not strictly subsumed by another.

    Strict subsumption is transitive and well-founded on a finite set, so
    a rule is subsumed by a kept rule iff it strictly contains *some* rule
    of the set, kept or not; no order of testing is needed.  After
    deduplication, ``has[x]`` holds, as a bit per rule, the rules with
    element ``x`` (a head atom, or a body atom under zero, one or two
    ``not``); the atoms of each tag have their own dict of columns.  A
    rule that strictly contains rule i has more elements than i.  The
    rules are numbered largest first, so those are the rules numbered
    below the first rule of i's size, and the AND for i starts from them
    and ANDs in ``has`` over i's own elements, stopping once it is 0;
    what is left is subsumed.  The empty rule has no elements, so it
    subsumes every other rule, and the largest rules are never ANDed.
    The cost is at most the rules' total element count times one AND as
    wide as the set.  The columns of all rules share one flat list: a
    list per rule would be one more container per rule for the cyclic
    garbage collector to count and scan.
    """
    rules = sorted(set(rules), key=rule_size, reverse=True)
    n = len(rules)
    index = ({}, {}, {}, {})  # per tag: atom -> column
    cols: List[bytearray] = []
    ids: List[int] = []  # rule i's columns: ids[ends[i - 1]:ends[i]]
    ends = []
    for i, r in enumerate(rules):
        for column_of, atoms in zip(index, r):
            for a in atoms:
                x = column_of.setdefault(a, len(cols))
                if x == len(cols):
                    cols.append(bytearray(b"0") * n)
                cols[x][~i] = 49  # ASCII "1", read as bit i by int(col, 2)
                ids.append(x)
        ends.append(len(ids))
    has = [int(col, 2) for col in cols]
    subsumed, size, larger, start = 0, None, 0, 0
    for i, end in enumerate(ends):
        if end - start != size:
            size, larger = end - start, (1 << i) - 1
        containing = larger
        for x in ids[start:end]:
            if not containing:
                break
            containing &= has[x]
        subsumed |= containing
        start = end
    flags = format(subsumed, f"0{n}b")[::-1]
    return [r for r, f in zip(rules, flags) if f == "0"]
