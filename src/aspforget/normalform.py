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

from functools import reduce
from operator import and_
from typing import Iterable, List

from .core import Program, Rule, is_tautological


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
    ``not``).  The AND of ``has`` over a rule's own elements is every rule
    containing it; all of those but the rule itself are subsumed.  The
    empty rule has no elements, so it subsumes every other rule.  The cost
    is the rules' total element count times one AND as wide as the set.
    """
    rules = list(set(rules))
    n = len(rules)
    index: dict = {}
    cols: List[bytearray] = []
    own = []
    for i, r in enumerate(rules):
        ids = []
        for tag, atoms in enumerate((r.head, r.pbody, r.nbody, r.nnbody)):
            for a in atoms:
                x = index.setdefault((tag, a), len(cols))
                if x == len(cols):
                    cols.append(bytearray(b"0") * n)
                cols[x][~i] = 49  # ASCII "1", read as bit i by int(col, 2)
                ids.append(x)
        own.append(ids)
    has = [int(col, 2) for col in cols]
    everyone = (1 << n) - 1
    subsumed = 0
    for i, ids in enumerate(own):
        containing = reduce(and_, map(has.__getitem__, ids), everyone)
        subsumed |= containing ^ (1 << i)  # all but rule i itself
    flags = format(subsumed, f"0{n}b")[::-1]
    return [r for r, f in zip(rules, flags) if f == "0"]
