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

Derived rules are assembled from the four atom sets of a rule (head, P,
N and NN for the positive, ``not`` and ``not not`` body parts): ``not``
of head atoms adds them to N, ``not not`` of a body maps P to NN and
keeps N and NN, and a blocker from :func:`aspforget.asdual.as_dual` is
an (N, NN) pair added to the rule's own.  The blockers of each distinct
rule set are computed once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import FrozenSet, Iterable, List, Tuple

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
    qs = frozenset([q])
    # per rule: head, P, N and NN with q dropped
    cut = {r: (r.head - qs, r.pbody - qs, r.nbody - qs, r.nnbody - qs)
           for r in part.r0 | part.r1 | part.r2 | part.r3 | part.r4}
    blockers: dict = {}

    def srt(rules: Iterable[Rule]) -> List[Rule]:
        return sorted(rules, key=rule_key)

    def duals(rules: FrozenSet[Rule]
              ) -> List[Tuple[FrozenSet[str], FrozenSet[str]]]:
        # ordered by the blocker's literals as printed, ``not`` ones
        # before ``not not`` ones; one as_dual call per distinct rule set
        if rules not in blockers:
            blockers[rules] = sorted(as_dual(q, rules), key=lambda d: (
                [(1, a) for a in sorted(d[0])]
                + [(2, a) for a in sorted(d[1])]))
        return blockers[rules]

    r0s, r2s, r3s, r4s = map(srt, (part.r0, part.r2, part.r3, part.r4))
    r14 = srt(part.r1 | part.r4)
    out: List[TraceEntry] = []

    def emit(tag: str, head, pbody, nbody, nnbody, *sources: Rule) -> None:
        out.append(TraceEntry(tag, Rule(head, pbody, nbody, nnbody), sources))

    for r in srt(part.plain):
        out.append(TraceEntry("plain", r, (r,)))

    for r0 in r0s:
        _, p0, n0, nn0 = cut[r0]
        # 1a: inline a producer into a positive consumer.
        for r4 in r4s:
            h4, p4, n4, nn4 = cut[r4]
            emit("1a", r0.head | h4, p0 | p4, n0 | n4, nn0 | nn4, r0, r4)
        for r3 in r3s:
            h3, p3, n3, nn3 = cut[r3]
            # 2a: the self-cycle fires because some r1/r4 rule supports it.
            for rp in r14:
                hp, pp, np_, nnp = cut[rp]
                emit("2a", r0.head | h3, p0 | p3, n0 | n3 | hp | np_,
                     nn0 | nn3 | pp | nnp, r0, r3, rp)
            # 3a: the self-cycle fires through the consumer's own head.
            for dn, dnn in duals((part.r0 | part.r2) - {r0}):
                for h in sorted(r0.head):
                    emit("3a", r0.head, p0 | p3, n0 | dn | n3 | h3,
                         nn0 | {h} | dnn | nn3, r0, r3)

    for r2 in r2s:
        _, p2, n2, nn2 = cut[r2]
        # 1b: a producer supports a double-negation consumer.
        for r4 in r4s:
            h4, p4, n4, nn4 = cut[r4]
            emit("1b", r2.head, p2, n2 | h4 | n4, nn2 | p4 | nn4, r2, r4)
        for r3 in r3s:
            h3, p3, n3, nn3 = cut[r3]
            # 2b: the self-cycle fires thanks to some r1/r4 rule.
            for rp in r14:
                hp, pp, np_, nnp = cut[rp]
                emit("2b", r2.head, p2, n2 | h3 | hp | n3 | np_,
                     nn2 | p3 | nn3 | pp | nnp, r2, r3, rp)
            # 3b: the self-cycle fires through the consumer's own head.
            for dn, dnn in duals((part.r0 | part.r2) - {r2}):
                for h in sorted(r2.head):
                    emit("3b", r2.head, p2, n2 | h3 | n3 | dn,
                         nn2 | p3 | nn3 | {h} | dnn, r2, r3)

    for rp in r14:
        hp, pp, np_, nnp = cut[rp]
        # ``not`` of a body literal of rp: P and NN go to N, N goes to NN
        block_n, block_nn = pp | nnp, np_

        def unblocked(rules):
            return [(dn, dnn) for dn, dnn in duals(rules)
                    if not (dn & block_n or dnn & block_nn)]

        # 4: q underivable because every producer is blocked.
        for dn, dnn in unblocked(part.r3 | part.r4):
            emit("4", hp, pp, np_ | dn, nnp | dnn, rp)
        for r3 in r3s:
            h3, p3, n3, nn3 = cut[r3]
            # 5: a self-cycle exists but each consumer absorbs it and the
            # plain producers are blocked.
            for r in srt(part.r0 | part.r2):
                hr, pr, nr, nnr = cut[r]
                n5, nn5 = np_ | hr | h3 | nr | n3, nnp | pr | nnr | p3 | nn3
                for dn, dnn in unblocked(part.r4):
                    emit("5", hp, pp, n5 | dn, nn5 | dnn, rp, r3, r)
            # 6: the self-cycle fires through this rule's own head.
            for dn, dnn in duals((part.r1 | part.r4) - {rp}):
                for h in sorted(hp):
                    emit("6", hp, pp, np_ | h3 | n3 | dn,
                         nnp | p3 | nn3 | {h} | dnn, rp, r3)

    for r0 in r0s:
        _, p0, n0, nn0 = cut[r0]
        # 7: two distinct self-cycles feed a consumer.
        for r3, r3b in permutations(r3s, 2):
            h3, p3, n3, nn3 = cut[r3]
            hb, pb, nb, nnb = cut[r3b]
            for dn, dnn in duals((part.r0 | part.r2) - {r0}):
                for h in sorted(r0.head):
                    emit("7", r0.head | h3, p0 | p3, n0 | n3 | hb | nb | dn,
                         nn0 | nn3 | pb | nnb | {h} | dnn, r0, r3, r3b)
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
