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
from itertools import compress
from operator import or_
from typing import Iterable, List

from .core import Program, Rule, element_mask, is_tautological


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


# per element, lowest first: b"\x01" where a mask's bit is clear (_LACKS)
# or set (_HAS), as selectors for ``itertools.compress``
_LACKS = bytes.maketrans(b"01", b"\x01\x00")
_HAS = bytes.maketrans(b"01", b"\x00\x01")


def _minimal_rules(rules: Iterable[Rule]) -> List[Rule]:
    """Keep exactly the rules not strictly subsumed by another.

    Each rule is a bit set of its elements (:func:`core.element_mask`), and
    a strict subsumer is a strict subset, hence has fewer bits, so after
    sorting by bit count each rule only needs testing against the rules
    kept before it.  ``occurs[x]`` holds, as a bit per kept rule, the kept
    rules with element ``x``.  The OR of ``occurs`` over the elements a
    candidate lacks is the set of kept rules that are no subset of it; the
    candidate is subsumed iff some kept rule falls outside that set.
    """
    index: dict = {}
    packed = sorted(((element_mask(r, index), r) for r in set(rules)),
                    key=lambda t: t[0].bit_count())
    n = len(index)
    occurs = [0] * n
    out: List[Rule] = []
    for m, r in packed:
        bits = format(m, f"0{n}b")[::-1].encode()
        outside = reduce(or_, compress(occurs, bits.translate(_LACKS)), 0)
        if ~outside & ((1 << len(out)) - 1):
            continue
        bit = 1 << len(out)
        for x in compress(range(n), bits.translate(_HAS)):
            occurs[x] |= bit
        out.append(r)
    return out
