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

from typing import FrozenSet, Iterable, List

from .core import Program, Rule, is_tautological


def is_normal_form(p: Program) -> bool:
    """Check the three normal-form conditions."""
    rules = p.rules
    for r in rules:
        if r.pbody & r.nbody or r.pbody & r.nnbody or r.nbody & r.nnbody:
            return False
        if r.head & r.pbody or r.head & r.nbody:
            return False
    return len(_minimal_rules(rules)) == len(rules)


def normal_form(p: Program) -> Program:
    """The normal form of ``p``; signature is preserved."""
    kept = [r for r in p.rules if not is_tautological(r)]
    rewritten = [Rule(r.head - r.nbody, r.pbody, r.nbody, r.nnbody - r.pbody)
                 for r in kept]
    return Program(_minimal_rules(rewritten), signature=p.signature)


def _minimal_rules(rules: Iterable[Rule]) -> List[Rule]:
    """Keep exactly the rules not strictly subsumed by another.

    A strict subsumer is componentwise smaller, hence strictly smaller in
    total size, so after sorting by size each rule only needs to be checked
    against the smaller kept ones.  Heads and bodies are packed into bit
    masks to keep this quadratic pass cheap on large programs.
    """
    rules = set(rules)
    index = {a: i for i, a in enumerate(sorted({a for r in rules for a in r.atoms}))}

    def mask(atoms: FrozenSet[str], shift: int) -> int:
        m = 0
        for a in atoms:
            m |= 1 << (3 * index[a] + shift)
        return m

    packed = []
    for r in rules:
        h = mask(r.head, 0)
        b = mask(r.pbody, 0) | mask(r.nbody, 1) | mask(r.nnbody, 2)
        packed.append((len(r.head) + len(r.pbody) + len(r.nbody)
                       + len(r.nnbody), h, b, r))
    packed.sort(key=lambda t: t[0])

    kept: List[tuple] = []
    out: List[Rule] = []
    for size, h, b, r in packed:
        if any(ks < size and kh & h == kh and kb & b == kb
               for ks, kh, kb in kept):
            continue
        kept.append((size, h, b))
        out.append(r)
    return out
