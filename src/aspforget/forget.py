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
cover the ways q can fail to be derivable.  The union is normalized again
at the end.  The result preserves the answer sets of the original program
modulo q under every q-free context whenever any forgetting operator can
(and is a sound over-approximation otherwise, see
:func:`aspforget.semantic.satisfies_omega`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import FrozenSet, Iterable, List, Tuple

from .asdual import as_dual
from .core import (Literal, NAFNAF, POS, Program, Rule, make_rule, naf,
                   nafnaf, rule_key)
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


@dataclass(frozen=True)
class TraceEntry:
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


def _derivations(part: Partition, q: str) -> List[TraceEntry]:
    """All rules emitted by the derivation families, with provenance."""

    def hq(r: Rule) -> FrozenSet[str]:
        return r.head - {q}

    def bq(r: Rule) -> FrozenSet[Literal]:
        return r.body_without(q)

    def srt(rules: Iterable[Rule]) -> List[Rule]:
        return sorted(rules, key=rule_key)

    def duals(rules: FrozenSet[Rule]) -> List[FrozenSet[Literal]]:
        # the order of ``key=sorted``, without Literal's dataclass ``__lt__``
        return sorted(as_dual(q, srt(rules)),
                      key=lambda d: sorted((l.depth, l.atom) for l in d))

    r0s, r1s = srt(part.r0), srt(part.r1)
    r2s, r3s = srt(part.r2), srt(part.r3)
    r4s = srt(part.r4)
    r14 = srt(part.r1 | part.r4)
    out: List[TraceEntry] = []

    def emit(tag: str, head, body, *sources: Rule) -> None:
        out.append(TraceEntry(tag, make_rule(head, body), sources))

    for r in srt(part.plain):
        emit("plain", r.head, r.body, r)

    for r0 in r0s:
        # 1a: inline a producer into a positive consumer.
        for r4 in r4s:
            emit("1a", r0.head | hq(r4), bq(r0) | bq(r4), r0, r4)
        for r3 in r3s:
            # 2a: the self-cycle fires because some r1/r4 rule supports it.
            for rp in r14:
                emit("2a", r0.head | hq(r3),
                     bq(r0) | bq(r3) | naf(hq(rp)) | nafnaf(bq(rp)),
                     r0, r3, rp)
            # 3a: the self-cycle fires through the consumer's own head.
            for d in duals((part.r0 | part.r2) - {r0}):
                for h in sorted(r0.head):
                    emit("3a", r0.head,
                         bq(r0) | {Literal(NAFNAF, h)} | d | bq(r3)
                         | naf(hq(r3)),
                         r0, r3)

    for r2 in r2s:
        # 1b: a producer supports a double-negation consumer.
        for r4 in r4s:
            emit("1b", r2.head, bq(r2) | naf(hq(r4)) | nafnaf(bq(r4)),
                 r2, r4)
        for r3 in r3s:
            # 2b: the self-cycle fires thanks to some r1/r4 rule.
            for rp in r14:
                emit("2b", r2.head,
                     bq(r2) | naf(hq(r3) | hq(rp))
                     | nafnaf(bq(r3) | bq(rp)),
                     r2, r3, rp)
            # 3b: the self-cycle fires through the consumer's own head.
            for d in duals((part.r0 | part.r2) - {r2}):
                for h in sorted(r2.head):
                    emit("3b", r2.head,
                         bq(r2) | naf(hq(r3))
                         | nafnaf(bq(r3) | {Literal(POS, h)}) | d,
                         r2, r3)

    for rp in r14:
        blocked = naf(bq(rp))
        # 4: q underivable because every producer is blocked.
        for d in duals(part.r3 | part.r4):
            if not d & blocked:
                emit("4", hq(rp), bq(rp) | d, rp)
        for r3 in r3s:
            # 5: a self-cycle exists but each consumer absorbs it and the
            # plain producers are blocked.
            for r in srt(part.r0 | part.r2):
                for d in duals(part.r4):
                    if not d & blocked:
                        emit("5", hq(rp),
                             bq(rp) | naf(hq(r) | hq(r3))
                             | nafnaf(bq(r) | bq(r3)) | d,
                             rp, r3, r)
            # 6: the self-cycle fires through this rule's own head.
            for d in duals((part.r1 | part.r4) - {rp}):
                for h in sorted(hq(rp)):
                    emit("6", hq(rp),
                         bq(rp) | naf(hq(r3))
                         | nafnaf(bq(r3) | {Literal(POS, h)}) | d,
                         rp, r3)

    for r0 in r0s:
        # 7: two distinct self-cycles feed a consumer.
        for r3, r3b in permutations(r3s, 2):
            for d in duals((part.r0 | part.r2) - {r0}):
                for h in sorted(r0.head):
                    emit("7", r0.head | hq(r3),
                         bq(r0) | bq(r3) | naf(hq(r3b))
                         | nafnaf(bq(r3b) | {Literal(POS, h)}) | d,
                         r0, r3, r3b)
    return out


def forget_with_trace(p: Program, q: str) -> Tuple[Program, Tuple[TraceEntry, ...]]:
    """Forget ``q`` and also return the derivation trace.

    The trace describes the result before the final normalization, so every
    pre-normalization rule has at least one entry; the final program is the
    normal form of those rules over the signature without ``q``.
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
