"""Randomized corpus generation and strong-persistence verification.

``generate_corpus`` produces a deterministic stream of small programs from
a seed, prefixed by a fixed golden sub-corpus of hand-picked instances
that exercise every rule class.  ``verify_sp`` checks, over every context
of bounded depth, that forgetting preserves answer sets modulo the
forgotten atom: exact equality when the obstruction criterion is false,
superset inclusion otherwise.

Unions with contexts are evaluated through the identity that the HT-models
of a union are the intersection of the HT-models over a common signature.
Each context's models are enumerated once into an :class:`HTModelSet`,
whose rows are int masks (there-world -> bitset of here-worlds), so a
context costs one AND per there-world shared with the program.  Its answer
sets are the there-worlds whose AND holds that world alone; they are
compared as masks, and decoded into atom sets only for a failure report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterator, List, Optional, Tuple

from .core import Program, Rule, rule
from .forget import forget
from .ht_semantics import (HTModelSet, check_signature, ht_models,
                           signature_limit, world_masks)
from .parser_io import parse_program
from .semantic import _omega_rows

GOLDEN_TEXTS = {
    "chain_pos": """
        t :- q.   v :- not q.   q :- s.   q :- w.
    """,
    "disjunctive_producer": """
        v :- not q.   q :- s, t.   q | u :- w.
    """,
    "self_cycle_pos": """
        q :- not not q.   a :- q.
    """,
    "self_cycle_mixed": """
        q :- not not q.   u :- q.   s :- q.   t :- not q.
    """,
    "linked_chain": """
        d :- not c.   a :- q.   q :- b.
    """,
    "disjunctive_mixed": """
        q :- s.   q | u :- r.   t :- q.   v :- not q.
    """,
    "distance_left": """
        a :- b, not c.
    """,
    "distance_right": """
        a :- not c.   b :- d.
    """,
    "negative_loop": """
        p :- not q.   p :- not p.
    """,
    "fact_blocker": """
        q.   p :- not q.
    """,
    "positive_link": """
        p :- q.   q :- not c.
    """,
    "three_cycle": """
        c :- not p.   p :- not q.   q :- not p.
    """,
    "horn_loop": """
        a :- b.   b :- a.   q.
    """,
}

GOLDEN_PROGRAMS = {name: parse_program(text)
                   for name, text in GOLDEN_TEXTS.items()}


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a generated corpus; same spec, same programs."""

    max_atoms: int = 4
    max_rules: int = 5
    max_body: int = 3
    allow_disjunction: bool = True
    allow_double_negation: bool = True
    seed: int = 0
    count: int = 100


_POOL = ("q", "a", "b", "c", "d", "e", "f", "g", "h", "j", "k", "m")


def _golden_within(spec: CorpusSpec) -> List[Program]:
    out = []
    for name in sorted(GOLDEN_PROGRAMS):
        p = GOLDEN_PROGRAMS[name]
        if not spec.allow_disjunction and any(len(r.head) > 1 for r in p.rules):
            continue
        if not spec.allow_double_negation and any(r.nnbody for r in p.rules):
            continue
        out.append(p)
    return out


def _random_rule(rng: random.Random, atoms: Tuple[str, ...],
                 spec: CorpusSpec) -> Rule:
    roll = rng.random()
    if roll < 0.12:
        head_size = 0
    elif spec.allow_disjunction and roll < 0.32:
        head_size = 2
    else:
        head_size = 1
    head = rng.sample(atoms, min(head_size, len(atoms)))
    body_atoms = rng.sample(atoms, rng.randint(0, min(spec.max_body,
                                                      len(atoms))))
    kinds = ("p", "n", "nn") if spec.allow_double_negation else ("p", "n")
    pbody, nbody, nnbody = [], [], []
    for a in body_atoms:
        {"p": pbody, "n": nbody, "nn": nnbody}[rng.choice(kinds)].append(a)
    return rule(head, pbody, nbody, nnbody)


def generate_corpus(spec: CorpusSpec) -> List[Program]:
    """The golden sub-corpus (filtered by the syntax switches) followed by
    ``spec.count`` pseudorandom programs."""
    rng = random.Random(spec.seed)
    atoms = _POOL[:spec.max_atoms]
    programs = _golden_within(spec)
    for _ in range(spec.count):
        n_rules = rng.randint(1, spec.max_rules)
        programs.append(Program(_random_rule(rng, atoms, spec)
                                for _ in range(n_rules)))
    return programs


DEFAULT_CONTEXT_LIMIT = 6


def enumerate_contexts(sigma, depth: int,
                       limit: Optional[int] = None) -> List[Program]:
    """Contexts over ``sigma``: all fact subsets (depth 0), plus single
    normal rules with at most two body literals (depth 1), plus all pairs
    of those rules (depth 2)."""
    atoms = tuple(sorted(frozenset(sigma)))
    check_signature(frozenset(atoms),
                    signature_limit(limit, DEFAULT_CONTEXT_LIMIT))
    if depth not in (0, 1, 2):
        raise ValueError("depth must be 0, 1 or 2")
    contexts = [Program(rule([a]) for a in s) for s in _subsets(atoms)]
    if depth == 0:
        return contexts
    singles = _single_rules(atoms)
    contexts += [Program([r]) for r in singles]
    if depth == 2:
        contexts += [Program([r1, r2]) for i, r1 in enumerate(singles)
                     for r2 in singles[i + 1:]]
    return contexts


def _subsets(atoms):
    for mask in range(1 << len(atoms)):
        yield [a for i, a in enumerate(atoms) if mask >> i & 1]


def _single_rules(atoms) -> List[Rule]:
    literals = [(a, False) for a in atoms] + [(a, True) for a in atoms]
    bodies = [[]]
    bodies += [[l] for l in literals]
    bodies += [[l1, l2] for i, l1 in enumerate(literals)
               for l2 in literals[i + 1:]]
    rules = []
    for head in [[]] + [[a] for a in atoms]:
        for body in bodies:
            pbody = [a for a, neg in body if not neg]
            nbody = [a for a, neg in body if neg]
            rules.append(rule(head, pbody, nbody))
    return rules


@dataclass(frozen=True)
class SPFailure:
    """One context where the required relation between answer sets broke."""

    context: Program
    expected: FrozenSet[FrozenSet[str]]
    actual: FrozenSet[FrozenSet[str]]


@dataclass(frozen=True)
class SPReport:
    """Outcome of checking one program/atom instance over all contexts."""

    program: Program
    atom: str
    omega: bool
    contexts_checked: int
    failures: Tuple[SPFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@lru_cache(maxsize=64)
def _context_pairs(sigma_ctx: FrozenSet[str], universe: FrozenSet[str],
                   depth: int, limit: Optional[int]):
    return tuple((ctx, ht_models(ctx, universe))
                 for ctx in enumerate_contexts(sigma_ctx, depth, limit))


def _contexts(sigma_ctx: FrozenSet[str], universe: FrozenSet[str],
              depth: int, limit: Optional[int]
              ) -> Iterator[Tuple[Program, HTModelSet]]:
    """The contexts of :func:`enumerate_contexts` with their HT-model
    indexes over ``universe``, in its order.  Depth 0 and 1 come from the
    cached tables; a depth-2 context's index is the meet of its two
    single-rule indexes, one AND per shared there-world, built on the fly
    and not cached."""
    tables = _context_pairs(sigma_ctx, universe, min(depth, 1), limit)
    yield from tables
    if depth == 2:
        singles = tables[1 << len(sigma_ctx):]
        for i, (c1, m1) in enumerate(singles):
            for c2, m2 in singles[i + 1:]:
                yield Program(c1.rules | c2.rules), m1 & m2


def verify_sp(p: Program, q: str, depth: int = 1,
              limit: Optional[int] = None,
              result: Optional[Program] = None) -> SPReport:
    """Check strong persistence of ``forget(p, q)`` over all contexts.

    When the obstruction criterion is false the answer sets of the
    forgotten program under each context must equal those of the original
    with ``q`` removed; when it is true they must contain them.  ``limit``
    caps the signature of ``p`` and of the contexts; without it the
    ``ASPFORGET_SIGNATURE_LIMIT`` environment variable does, else 6 atoms.
    """
    limit = signature_limit(limit, DEFAULT_CONTEXT_LIMIT)
    check_signature(p.signature, limit)
    f = forget(p, q) if result is None else result
    universe = p.signature | {q}
    models_p = ht_models(p, universe)
    masks = world_masks(universe)
    qbit = masks.bit[q]
    omega = any(fams and target not in fams.values()
                for _, fams, target in _omega_rows(models_p, qbit))
    rp, rf = models_p.rows, ht_models(f, universe).rows
    decode = masks.decoder()
    failures = []
    checked = 0
    for ctx, models_ctx in _contexts(universe - {q}, universe, depth, limit):
        checked += 1
        rc = models_ctx.rows
        expected = {y & ~qbit for y, r in rp.items()
                    if y in rc and r & rc[y] == 1 << y}
        actual = {y for y, r in rf.items() if y in rc and r & rc[y] == 1 << y}
        ok = expected <= actual if omega else expected == actual
        if not ok:
            failures.append(SPFailure(ctx, frozenset(map(decode, expected)),
                                      frozenset(map(decode, actual))))
    return SPReport(p, q, omega, checked, tuple(failures))
