"""Syntactic forgetting of an atom from an extended logic program.

The operator first normalizes the program, then splits the rules by how
they use the forgotten atom q:

* ``plain``  q does not occur,
* ``r0``     q in the positive body,
* ``r1``     ``not q`` in the body,
* ``r2``     ``not not q`` in the body, q not in the head,
* ``r3``     ``not not q`` in the body and q in the head (a self-cycle
             that makes q behave like a free choice),
* ``r4``     q in the head without ``not not q`` in the body.

Plain rules pass through untouched.  The remaining rules are combined into
q-free derivations: producers (r4, and r3 under its choice) are inlined
into consumers (r0, r2), and blocker sets from :mod:`aspforget.asdual`
cover the ways q can fail to be derivable.  Each family is one row of
``_FAMILIES``: a derived rule unions, part by part (head, P, N and NN for
the positive, ``not`` and ``not not`` body), a lead rule and one choice
per level, q cut out.  A source rule goes in as it is, as ``not not`` of
its body and ``not`` of its head, or as its body and ``not`` of its head;
a blocker adds its (N, NN) pair.  The union is normalized again at the end.
The result preserves the answer sets of the original program modulo q
under every q-free context whenever any forgetting operator can (and is a
sound over-approximation otherwise, see
:func:`aspforget.semantic.satisfies_omega`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, NamedTuple, Tuple

from .asdual import as_dual
from .core import Program, Rule, rule_key
from .normalform import is_normal_form, normal_form


@dataclass(frozen=True)
class Partition:
    """The six-way split of a normal-form program by its use of q."""

    plain: FrozenSet[Rule]
    r0: FrozenSet[Rule]
    r1: FrozenSet[Rule]
    r2: FrozenSet[Rule]
    r3: FrozenSet[Rule]
    r4: FrozenSet[Rule]


class TraceEntry(NamedTuple):
    """One emitted rule with the derivation family and source rules."""

    tag: str
    rule: Rule
    sources: Tuple[Rule, ...]


def partition(p: Program, q: str) -> Partition:
    """Split a normal-form program; raises ValueError on non-normal input."""
    if not is_normal_form(p):
        raise ValueError("partition requires a program in normal form")
    return _split(p, q)


def _split(p: Program, q: str) -> Partition:
    """Bucket the rules of ``p``, which the caller guarantees is normal."""
    buckets: dict = {k: [] for k in ("plain", "r0", "r1", "r2", "r3", "r4")}
    for r in p.rules:
        if q not in r.atoms:
            buckets["plain"].append(r)
        elif q in r.pbody:
            buckets["r0"].append(r)
        elif q in r.nbody:
            buckets["r1"].append(r)
        elif q in r.nnbody:
            buckets["r3" if q in r.head else "r2"].append(r)
        else:
            buckets["r4"].append(r)
    return Partition(**{k: frozenset(v) for k, v in buckets.items()})


AS_IS, NOT_NOT, BODY = 0, 1, 2  # where a source's (H, P, N, NN), q cut out, go
_NONE: FrozenSet[str] = frozenset()


def _place(how: int, h, p, n, nn):
    if how == AS_IS:  # the rule as it is
        return h, p, n, nn
    if how == NOT_NOT:  # `not not` of its body, `not` of its head
        return _NONE, _NONE, h | n, p | nn
    return _NONE, p, h | n, nn  # BODY: its body, `not` of its head


# A level gives one choice per derived rule:
#   ("rule", B, how)  each rule of bucket B in rule_key order, placed how,
#                     skipping a rule already among the sources;
#   ("own", B)        each blocker of B without the lead, then each head
#                     atom of the lead, sorted, under `not not`;
#   ("free", B)       each blocker of all of B whose N avoids the lead's
#                     P and NN and whose NN avoids the lead's N.
_FAMILIES = (  # tag, lead bucket (lead placed AS_IS), then the levels
    ("1a", "r0",  ("rule", "r4", AS_IS)),
    ("2a", "r0",  ("rule", "r3", AS_IS), ("rule", "r14", NOT_NOT)),
    ("3a", "r0",  ("rule", "r3", BODY), ("own", "r02")),
    ("1b", "r2",  ("rule", "r4", NOT_NOT)),
    ("2b", "r2",  ("rule", "r3", NOT_NOT), ("rule", "r14", NOT_NOT)),
    ("3b", "r2",  ("rule", "r3", NOT_NOT), ("own", "r02")),
    ("4",  "r14", ("free", "r34")),
    ("5",  "r14", ("rule", "r3", NOT_NOT), ("rule", "r02", NOT_NOT), ("free", "r4")),
    ("6",  "r14", ("rule", "r3", NOT_NOT), ("own", "r14")),
    ("7",  "r0",  ("rule", "r3", AS_IS), ("rule", "r3", NOT_NOT), ("own", "r02")),
)


def _walk(emit, duals, cut, tag: str, lead: Rule, levels, h, p, n, nn,
          srcs: Tuple[Rule, ...]) -> None:
    """Emit ``lead``'s ``tag`` rules: the parts and sources so far, plus one
    choice per level.  Module level: a closure calling itself is a cycle."""
    (kind, arg), rest = levels[0], levels[1:]
    if kind == "rule":
        for r, (h1, p1, n1, nn1) in arg:
            if r in srcs:
                continue
            if rest:
                _walk(emit, duals, cut, tag, lead, rest, h | h1, p | p1,
                      n | n1, nn | nn1, srcs + (r,))
            else:
                emit(tag, h | h1, p | p1, n | n1, nn | nn1, srcs + (r,))
    elif kind == "own":
        for dn, dnn in duals(arg - {lead}):
            for a in sorted(cut[lead][0]):
                emit(tag, h, p, n | dn, nn | dnn | {a}, srcs)
    else:
        _, lp, ln, lnn = cut[lead]
        for dn, dnn in duals(arg):
            if not (dn & lp or dn & lnn or dnn & ln):
                emit(tag, h, p, n | dn, nn | dnn, srcs)


def _derivations(part: Partition, q: str) -> List[TraceEntry]:
    """The trace entries of :func:`forget_with_trace`, in its order.

    A row with an empty ``rule`` level emits nothing and is skipped.
    ``emit`` keeps one object per distinct atom set (its first), which
    holds the memory of a large result near the number of distinct sets.
    """
    qs = frozenset([q])
    buckets = {**vars(part), "r02": part.r0 | part.r2,
               "r14": part.r1 | part.r4, "r34": part.r3 | part.r4}
    # per rule: head, P, N and NN with q dropped
    cut = {r: (r.head - qs, r.pbody - qs, r.nbody - qs, r.nnbody - qs)
           for r in buckets["r02"] | buckets["r34"] | part.r1}
    order = sorted(cut, key=rule_key)
    blockers: dict = {}
    out = [TraceEntry("plain", r, (r,))
           for r in sorted(part.plain, key=rule_key)]
    shared = {}.setdefault

    def duals(rules: FrozenSet[Rule]
              ) -> List[Tuple[FrozenSet[str], FrozenSet[str]]]:
        # ordered by the blocker's literals as printed, ``not`` ones
        # before ``not not`` ones; one as_dual call per distinct rule set
        if rules not in blockers:
            blockers[rules] = sorted(as_dual(q, rules), key=lambda d: (
                [(1, a) for a in sorted(d[0])]
                + [(2, a) for a in sorted(d[1])]))
        return blockers[rules]

    def emit(tag: str, h, p, n, nn, sources: Tuple[Rule, ...]) -> None:
        out.append(TraceEntry(tag, Rule(shared(h, h), shared(p, p),
                                        shared(n, n), shared(nn, nn)),
                              sources))

    for row in _FAMILIES:  # indexed: a starred unpacking costs µs per call
        leads = buckets[row[1]]
        if not leads:
            continue
        levels = []
        for level in row[2:]:
            rules = buckets[level[1]]
            if level[0] != "rule":
                levels.append((level[0], rules))
            elif rules:
                levels.append(("rule", [(r, _place(level[2], *cut[r]))
                                        for r in order if r in rules]))
            else:
                break
        else:
            for r in order:
                if r in leads:
                    _walk(emit, duals, cut, row[0], r, levels, *cut[r], (r,))
    return out


def forget_with_trace(p: Program, q: str) -> Tuple[Program, Tuple[TraceEntry, ...]]:
    """Forget ``q`` and also return the derivation trace.

    The trace describes the result before the final normalization, so every
    pre-normalization rule has at least one entry; the final program is the
    normal form of those rules over the signature without ``q``.  The plain
    rules come first, then one family at a time in the order of
    ``_FAMILIES``: by lead rule, then by the choices of each level in turn
    (rules in ``rule_key`` order, blockers by their literals as printed).
    """
    return _forget(p, q, fast=False)


def _forget(p: Program, q: str, fast: bool
            ) -> Tuple[Program, Tuple[TraceEntry, ...]]:
    # with ``fast``, refuse from the same buckets the derivation reads
    part = _split(normal_form(p), q)
    if fast and not _forgettable(part):
        raise ValueError(f"program is not {q}-forgettable; use forget()")
    entries = tuple(_derivations(part, q))
    raw = Program((e.rule for e in entries), signature=p.signature - {q})
    return normal_form(raw), entries


def forget(p: Program, q: str) -> Program:
    """Forget atom ``q``; the result never mentions ``q`` and its signature
    is the signature of ``p`` minus ``q``."""
    result, _ = forget_with_trace(p, q)
    return result


def forget_iterated(p: Program, atoms: Iterable[str]) -> Program:
    """Forget several atoms one by one, left to right.

    The persistence guarantees of :func:`forget` apply per step only; there
    is no joint guarantee for the set.
    """
    for q in atoms:
        p = forget(p, q)
    return p


def is_q_forgettable(p: Program, q: str) -> bool:
    """True iff forgetting ``q`` needs only the cheap derivation families.

    Read from the buckets of the normal form: either every rule mentioning
    q is a self-cycle, or the fact ``q.`` is present, or there is no
    self-cycle on q at all.  The fact needs no test of its own: it
    subsumes every other rule with q in the head, so the normal form then
    has no self-cycle.
    """
    return _forgettable(_split(normal_form(p), q))


def _forgettable(part: Partition) -> bool:
    return not part.r3 or not (part.r0 or part.r1 or part.r2 or part.r4)


def forget_fast(p: Program, q: str) -> Program:
    """:func:`forget`, refused unless :func:`is_q_forgettable` holds.

    On that class only the pass-through and families 1a, 1b and 4 can
    emit rules, since every other family pairs a self-cycle with a
    consumer or a producer, so the result is exactly :func:`forget`'s.
    The input is normalized once, for the test and the derivation both.
    """
    return _forget(p, q, fast=True)[0]
