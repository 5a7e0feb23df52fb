"""Randomized corpus generation and strong-persistence verification.

``generate_corpus`` produces a deterministic stream of small programs from
a seed, prefixed by a fixed golden sub-corpus of hand-picked instances
that exercise every rule class.  ``verify_sp`` checks, over every context
of bounded depth, that forgetting preserves answer sets modulo the
forgotten atom: exact equality when the obstruction criterion is false,
superset inclusion otherwise.

Unions with contexts go through the identity that the HT-models of a union
are the intersection of its parts' models over one signature.  The rows of
all contexts are indexed once per signature, by there-world and row, so a
there-world of the program is one memoized lookup that yields the bitset
of contexts under which it is an answer set; only failures are decoded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from .core import Program, Rule, rule
from .forget import forget
from .ht_semantics import (HTModelSet, _bits, check_signature, ht_models,
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


class _ContextIndex:
    """The contexts of one :func:`enumerate_contexts` call as bit i of an
    int, in its order: ``by_world[y][row]`` holds those whose HT-model row
    at there-world y is ``row``.  No context's models or program are kept,
    and no limit: :func:`verify_sp` has guarded a superset of ``sigma_ctx``."""

    def __init__(self, sigma_ctx: FrozenSet[str], universe: FrozenSet[str],
                 depth: int):
        self.by_world: Dict[int, Dict[int, int]] = {}
        self.memo: Dict[Tuple[int, int], int] = {}
        self.count = 0
        contexts = enumerate_contexts(sigma_ctx, depth, len(sigma_ctx))
        for i, ctx in enumerate(contexts):
            for y, row in ht_models(ctx, universe, len(universe)).rows.items():
                groups = self.by_world.setdefault(y, {})
                groups[row] = groups.get(row, 0) | 1 << i
            self.count = i + 1

    def answers(self, y: int, row: int) -> int:
        """The contexts under which y is an answer set of a program whose
        row at y is ``row``: those whose row rc there leaves y alone in it."""
        bits = self.memo.get((y, row))
        if bits is None:
            bits = 0
            for rc, group in self.by_world.get(y, {}).items():
                if rc & row == 1 << y:
                    bits |= group
            self.memo[y, row] = bits
        return bits


_context_index = lru_cache(maxsize=64)(_ContextIndex)


def _compare(index: _ContextIndex, models_p: HTModelSet,
             models_f: HTModelSet, qbit: int, omega: bool):
    """Per world, the contexts under which it is an answer set of p, q
    removed (``expected``), and of the result (``actual``); and the
    contexts where these break equality (under Omega, inclusion)."""
    expected: Dict[int, int] = {}
    actual: Dict[int, int] = {}
    for side, models, keep in ((expected, models_p, ~qbit),
                               (actual, models_f, ~0)):
        for y, row in models.rows.items():
            side[y & keep] = side.get(y & keep, 0) | index.answers(y, row)
    bad = 0
    for w in expected.keys() | actual.keys():
        e, a = expected.get(w, 0), actual.get(w, 0)
        bad |= e & ~a if omega else e ^ a
    return expected, actual, bad


def _failure(ctx: Program, expected, actual, i: int, decode) -> SPFailure:
    def at(side):
        return frozenset(decode(w) for w, b in side.items() if b >> i & 1)
    return SPFailure(ctx, at(expected), at(actual))


def verify_sp(p: Program, q: str, depth: int = 1,
              limit: Optional[int] = None,
              result: Optional[Program] = None) -> SPReport:
    """Check strong persistence of ``forget(p, q)`` over all contexts.

    When the obstruction criterion is false the answer sets of the
    forgotten program under each context must equal those of the original
    with ``q`` removed; when it is true they must contain them.  ``limit``
    caps the signature of ``p`` and of the contexts; without it the
    ``ASPFORGET_SIGNATURE_LIMIT`` environment variable does, else 6 atoms.
    Each there-world of ``p`` and of the result is one lookup in a cached
    index of the contexts, and yields the contexts it is an answer set in.
    """
    if depth not in (0, 1, 2):
        raise ValueError("depth must be 0, 1 or 2")
    limit = signature_limit(limit, DEFAULT_CONTEXT_LIMIT)
    check_signature(p.signature, limit)
    f = forget(p, q) if result is None else result
    universe = p.signature | {q}
    # The guards on p and on the contexts are the only caps; the models
    # over the universe, at most one atom wider, apply none of their own.
    models_p = ht_models(p, universe, len(universe))
    models_f = ht_models(f, universe, len(universe))
    masks = world_masks(universe)
    qbit = masks.bit[q]
    omega = _obstructed(models_p, qbit)
    decode = masks.decoder()
    sigma_ctx = universe - {q}
    index = _context_index(sigma_ctx, universe, min(depth, 1))
    expected, actual, bad = _compare(index, models_p, models_f, qbit, omega)
    contexts = (enumerate_contexts(sigma_ctx, min(depth, 1), limit)
                if bad or depth == 2 else [])
    failures = [_failure(contexts[i], expected, actual, i, decode)
                for i in _bits(bad)]
    checked = index.count
    if depth == 2:
        # Pair (i, j), i < j, fails where the depth-1 index, asked with the
        # rows met with single i's, sets bit j; pairs come in that order.
        for i in range(1 << len(sigma_ctx), len(contexts)):
            ci = contexts[i]
            models_ci = ht_models(ci, universe, len(universe))
            expected, actual, bad = _compare(index, models_p & models_ci,
                                             models_f & models_ci, qbit, omega)
            for j in _bits(bad >> i + 1 << i + 1):
                failures.append(_failure(Program(ci.rules | contexts[j].rules),
                                         expected, actual, j, decode))
            checked += len(contexts) - i - 1
    return SPReport(p, q, omega, checked, tuple(failures))
