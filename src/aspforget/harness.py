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
from itertools import combinations
from typing import FrozenSet, Iterator, List, Optional, Tuple

from .core import Program, Rule, rule
from .forget import forget
from .ht_semantics import (HTModelSet, check_signature, ht_models,
                           signature_limit, world_masks)
from .parser_io import parse_program
from .semantic import _obstructed

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
    """A generated corpus; same spec, same programs."""

    seed: int = 0
    count: int = 100


# A random program has 1 to MAX_RULES rules over the atoms of _POOL, each
# with at most MAX_BODY body literals.
_POOL = ("q", "a", "b", "c")
MAX_RULES = 5
MAX_BODY = 3


def _random_rule(rng: random.Random) -> Rule:
    roll = rng.random()
    head_size = 0 if roll < 0.12 else 2 if roll < 0.32 else 1
    head = rng.sample(_POOL, head_size)
    pbody, nbody, nnbody = [], [], []
    for a in rng.sample(_POOL, rng.randint(0, MAX_BODY)):
        rng.choice((pbody, nbody, nnbody)).append(a)
    return rule(head, pbody, nbody, nnbody)


def generate_corpus(spec: CorpusSpec) -> List[Program]:
    """The golden sub-corpus followed by ``spec.count`` pseudorandom
    programs."""
    rng = random.Random(spec.seed)
    programs = [GOLDEN_PROGRAMS[name] for name in sorted(GOLDEN_PROGRAMS)]
    for _ in range(spec.count):
        n_rules = rng.randint(1, MAX_RULES)
        programs.append(Program(_random_rule(rng) for _ in range(n_rules)))
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
    contexts = [Program(rule([a]) for i, a in enumerate(atoms) if m >> i & 1)
                for m in range(1 << len(atoms))]
    if depth == 0:
        return contexts
    singles = _single_rules(atoms)
    contexts += [Program([r]) for r in singles]
    if depth == 2:
        contexts += [Program(pair) for pair in combinations(singles, 2)]
    return contexts


def _single_rules(atoms) -> List[Rule]:
    literals = [(a, False) for a in atoms] + [(a, True) for a in atoms]
    bodies = [b for k in range(3) for b in combinations(literals, k)]
    return [rule(head, [a for a, neg in body if not neg],
                 [a for a, neg in body if neg])
            for head in [[]] + [[a] for a in atoms] for body in bodies]


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
    return tuple((ctx, ht_models(ctx, universe, len(universe)))
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
        for (c1, m1), (c2, m2) in combinations(singles, 2):
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
    # The guards on p and on the contexts are the only caps; the models
    # over the universe, at most one atom wider, apply none of their own.
    models_p = ht_models(p, universe, len(universe))
    masks = world_masks(universe)
    qbit = masks.bit[q]
    omega = _obstructed(models_p, qbit)
    rp, rf = models_p.rows, ht_models(f, universe, len(universe)).rows
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
