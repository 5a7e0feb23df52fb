"""Output checks that share no algorithm with the library.

Everything here is restated from the definitions.  Rules are read through
their four atom sets (``head``, ``pbody``, ``nbody``, ``nnbody``) only; the
here-and-there pairs of small programs come from the naive enumerator in
``tests/oracles.py``; larger programs are probed pointwise with bit masks.

For forgetting one atom q, the target models of the paper are decided per
pair <X,Y> over the signature without q from at most six pairs of the
input's models:

* the candidate A = {} exists iff <Y,Y> is a model;
* the candidate A = {q} exists iff <Yq,Yq> is a model and <Y,Yq> is not;
* X belongs to the family of {} iff <X,Y> is a model, and to the family
  of {q} iff <X,Yq> or <Xq,Yq> is a model;
* <X,Y> is a target model iff some candidate exists and X belongs to the
  family of every candidate.

Forgetting is obstructed (Omega holds) iff for some Y both candidates
exist and neither family contains the other.
"""

from __future__ import annotations

import importlib.util
import random
from math import comb
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
Q = "q"


def load_oracles():
    """Import ``tests/oracles.py`` of the checkout under a private name."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parts(r) -> Tuple[frozenset, frozenset, frozenset, frozenset]:
    return r.head, r.pbody, r.nbody, r.nnbody


# --- printing and distance -------------------------------------------------

def canonical_rule(r) -> str:
    head = " | ".join(sorted(r.head))
    body = ", ".join([*sorted(r.pbody),
                      *("not " + a for a in sorted(r.nbody)),
                      *("not not " + a for a in sorted(r.nnbody))])
    if head and body:
        return f"{head} :- {body}."
    if head:
        return f"{head}."
    return f":- {body}." if body else ":-."


def canonical_text(rules: Iterable) -> str:
    """The canonical printed form: rules sorted by their text, one a line."""
    return "".join(line + "\n" for line in sorted(map(canonical_rule, rules)))


def rule_size(r) -> int:
    return sum(len(s) for s in parts(r))


def rule_distance(r1, r2) -> int:
    return sum(len(a ^ b) for a, b in zip(parts(r1), parts(r2)))


def distance_witness_ok(p1, p2, total: int, matching) -> bool:
    """The matching is injective between the two rule sets and its cost,
    unmatched rules at their size, is the reported total."""
    left = [a for a, _ in matching]
    right = [b for _, b in matching]
    if (len(set(left)) != len(left) or len(set(right)) != len(right)
            or not set(left) <= p1.rules or not set(right) <= p2.rules):
        return False
    cost = sum(rule_distance(a, b) for a, b in matching)
    cost += sum(rule_size(r) for r in p1.rules - set(left))
    cost += sum(rule_size(r) for r in p2.rules - set(right))
    return cost == total


# --- pointwise semantics over bit masks -------------------------------------

class Masks:
    """Rules as bit masks over a fixed atom order (at most 64 atoms), so
    that HT-membership is tested for many pairs in one array operation."""

    def __init__(self, rules: Iterable, index: Dict[str, int]):
        if len(index) > 64:
            raise ValueError("bit masks hold at most 64 atoms")
        table = np.array([[mask(s, index) for s in parts(r)] for r in rules],
                         dtype=np.uint64).reshape(-1, 4)
        self.table = table
        self.h, self.pb, self.nb, self.nnb = (table[None, :, i]
                                              for i in range(4))

    def violations(self, x, y) -> np.ndarray:
        """Per pair and rule: does <X,Y> violate the rule?  Y must satisfy
        it classically, and X its reduct when the negative part holds."""
        x = np.asarray(x, dtype=np.uint64)[:, None]
        y = np.asarray(y, dtype=np.uint64)[:, None]
        active = ((self.nb & y) == 0) & ((self.nnb & ~y) == 0)
        y_bad = ((self.pb & ~y) == 0) & ((self.h & y) == 0)
        x_bad = ((self.pb & ~x) == 0) & ((self.h & x) == 0)
        return active & (y_bad | x_bad)

    def members(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=np.uint64)
        y = np.asarray(y, dtype=np.uint64)
        step = max(1, 2 ** 20 // max(1, len(self.table)))
        return np.concatenate(
            [~self.violations(x[i:i + step], y[i:i + step]).any(axis=1)
             for i in range(0, len(x), step)] or [np.ones(0, bool)])

    def classically_violated(self, y: int) -> List[Tuple[int, ...]]:
        bad = self.violations([y], [y])[0]
        return [tuple(int(v) for v in row) for row in self.table[bad]]


def target_member(member, x, y, qbit):
    """Target membership of <X,Y> (arrays of pairs, or single pairs),
    from the input's membership test ``member``."""
    yq = y | qbit
    rel0 = member(y, y)
    relq = member(yq, yq) & (member(y, yq) ^ True)
    in0 = (rel0 ^ True) | member(x, y)
    inq = (relq ^ True) | member(x, yq) | member(x | qbit, yq)
    return (rel0 | relq) & in0 & inq


def obstructed_at(member, y: int, qbit: int) -> bool:
    yq = y | qbit
    if not (member(y, y) and member(yq, yq) and not member(y, yq)):
        return False
    subs = list(submasks(y))
    here0 = {x for x in subs if member(x, y)}
    hereq = {x for x in subs if member(x, yq) or member(x | qbit, yq)}
    return not (here0 <= hereq or hereq <= here0)


def submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def atom_index(atoms: Iterable[str]) -> Dict[str, int]:
    """Bit positions; q, when present, takes bit 0."""
    order = sorted(atoms, key=lambda a: (a != Q, a))
    return {a: i for i, a in enumerate(order)}


def mask(atoms: Iterable[str], index: Dict[str, int]) -> int:
    return sum(1 << index[a] for a in atoms)


def pair_masks(pairs, index) -> set:
    return {(mask(x, index), mask(y, index)) for x, y in pairs}


class SmallProgram:
    """Oracle HT-pairs of an input program whose signature contains q,
    with the derived target models and Omega verdict for forgetting q."""

    def __init__(self, oracles, p):
        self.index = atom_index(p.signature)
        self.qbit = 1 << self.index[Q]
        self.full = (1 << len(self.index)) - 1
        self.pairs = pair_masks(oracles.ht_pairs(list(p.rules), p.signature),
                                self.index)

    def member(self, x: int, y: int) -> bool:
        return (x, y) in self.pairs

    def target(self) -> set:
        rest = self.full & ~self.qbit
        return {(x, y) for y in submasks(rest) for x in submasks(y)
                if target_member(self.member, x, y, self.qbit)}

    def omega(self) -> bool:
        rest = self.full & ~self.qbit
        return any(obstructed_at(self.member, y, self.qbit)
                   for y in submasks(rest))

    def models_of(self, oracles, program) -> set:
        """Oracle HT-pairs of a q-free program over the signature without q."""
        sigma = set(self.index) - {Q}
        return pair_masks(oracles.ht_pairs(list(program.rules), sigma),
                          self.index)


# --- normal form -------------------------------------------------------------

def _packed(rules: List, index: Dict[str, int]) -> np.ndarray:
    """Rules as bit vectors of four blocks (head, pbody, nbody, nnbody),
    split into 64-bit words: one rule subsumes another iff its bits are
    a subset of the other's."""
    n = len(index)
    width = (4 * n + 63) // 64
    packed = np.zeros((len(rules), width), dtype=np.uint64)
    for i, r in enumerate(rules):
        bits = 0
        for block, atoms in enumerate(parts(r)):
            for a in atoms:
                bits |= 1 << (block * n + index[a])
        for w in range(width):
            packed[i, w] = (bits >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
    return packed


def normal_form_problems(rules: List, index: Dict[str, int]) -> List[str]:
    """Literal conditions per rule, then strict subsumption between rules."""
    problems = []
    for r in rules:
        h, pb, nb, nnb = parts(r)
        if pb & nb or pb & nnb or nb & nnb or h & pb or h & nb:
            problems.append(f"rule not in normal form: {canonical_rule(r)}")
    if problems or len(rules) < 2:
        return problems
    packed = _packed(rules, index)
    for i in range(len(rules)):
        inside = np.all((packed & ~packed[i]) == 0, axis=1)
        if np.count_nonzero(inside) > 1:
            problems.append(f"subsumed rule: {canonical_rule(rules[i])}")
            break
    return problems


def untouched_rule_problems(p, f, index: Dict[str, int]) -> List[str]:
    """The operator leaves the rules without q alone: each of them, once
    its redundant literals are dropped, is a rule of the result or is
    subsumed by one (tautologies excepted)."""
    wanted = []
    for r in p.rules:
        h, pb, nb, nnb = parts(r)
        if Q in r.atoms or h & pb or pb & nb or nb & nnb:
            continue
        wanted.append(type(r)(h - nb, pb, nb, nnb - pb))
    if not wanted:
        return []
    have = _packed(list(f.rules), index)
    for r, bits in zip(wanted, _packed(wanted, index)):
        if not np.all((have & ~bits) == 0, axis=1).any():
            return [f"rule without q is neither kept nor subsumed: "
                    f"{canonical_rule(r)}"]
    return []


# --- sampled target membership for large signatures ---------------------------

def _bits(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _repair_classical(masks: Masks, y: int, rng: random.Random,
                      allowed: int, steps: int = 200):
    """Walk from Y towards a classical model: satisfy a violated rule by
    adding a head atom, or falsify a violated constraint's body."""
    for _ in range(steps):
        bad = masks.classically_violated(y)
        if not bad:
            return y
        h, pb, nb, nnb = rng.choice(bad)
        if h & allowed:
            y |= rng.choice(_bits(h & allowed))
            continue
        moves = [y & ~b for b in _bits((pb | nnb) & y)]
        moves += [y | b for b in _bits(nb & allowed)]
        if not moves:
            return None
        y = rng.choice(moves)
    return None


def _repair_reduct(masks: Masks, x: int, y: int, rng: random.Random) -> int:
    """Grow X inside Y until it satisfies the reduct relative to Y (or no
    head atom inside Y can repair a violation)."""
    for _ in range(len(_bits(y)) + 1):
        bad = masks.violations([x], [y])[0]
        heads = [int(h) & y for h in masks.table[bad, 0] if int(h) & y]
        if not heads:
            break
        x |= rng.choice(_bits(rng.choice(heads)))
    return x


def _sample_pairs(inp: Masks, res: Masks, rest: int, qbit: int,
                  rng: random.Random, samples: int):
    """Pairs near the models of the input and of the result, and plain
    random ones, so that both members and non-members occur."""
    xs, ys = [], []
    for s in range(samples):
        density = (0.5, 0.8, 0.95)[s % 3]
        y = sum(b for b in _bits(rest) if rng.random() < density)
        guide = (inp, res)[s % 2]
        if s % 4 < 3:
            allowed = rest | qbit if guide is inp else rest
            repaired = _repair_classical(guide, y, rng, allowed)
            if repaired is not None:
                y = repaired & rest
        kind = s % 5
        if kind == 0:
            x = y
        else:
            x = sum(b for b in _bits(y) if rng.random() < 0.5)
            if kind < 4:
                x = _repair_reduct(guide, x, y, rng)
            if kind == 3 and y:
                x ^= rng.choice(_bits(y))
        xs.append(x)
        ys.append(y)
    return xs, ys


def _moves(x: int, y: int, rest: int):
    """Every pair one atom away: add an atom to Y, drop one from Y (and
    X), or toggle one of Y's atoms in X."""
    xs, ys = [], []
    for b in _bits(rest):
        if y & b:
            xs += [x & ~b, x ^ b]
            ys += [y & ~b, y]
        else:
            xs.append(x)
            ys.append(y | b)
    return xs, ys


def _start(res: Masks, rest: int, rng: random.Random, kind: int):
    """A starting pair for the search.  Kind 0 is a random pair; kinds 1
    and 2 are the smallest pairs that violate a random rule of the result,
    in Y or only in X.  A missing rule is often close to a present one,
    so the pairs it alone excludes are often near such a pair."""
    if kind == 0:
        y = sum(b for b in _bits(rest) if rng.random() < 0.7)
        return sum(b for b in _bits(y) if rng.random() < 0.5), y
    h, pb, nb, nnb = (int(v) for v in rng.choice(res.table))
    return pb, (pb | nnb if kind == 1 else pb | nnb | h) & rest


def _search_missing_rule(inp: Masks, res: Masks, rest: int, qbit: int,
                         rng: random.Random, starts: int, steps: int):
    """Local search for a pair outside the target that the result admits,
    the trace a missing rule leaves.  From each start it moves, among
    non-target neighbours, to one violating the fewest result rules (to a
    random one a fifth of the time).  Returns such a pair or None."""
    q = np.uint64(qbit)
    for start in range(starts):
        x, y = _start(res, rest, rng, start % 3)
        for _ in range(steps):
            xs, ys = _moves(x, y, rest)
            X = np.array(xs, dtype=np.uint64)
            Y = np.array(ys, dtype=np.uint64)
            outside = np.flatnonzero(~target_member(inp.members, X, Y, q))
            if not len(outside):
                break
            count = res.violations(X[outside], Y[outside]).sum(axis=1)
            if count.min() == 0:
                i = outside[int(count.argmin())]
                return xs[i], ys[i]
            if rng.random() < 0.2:
                i = rng.choice(outside.tolist())
            else:
                i = rng.choice(outside[count == count.min()].tolist())
            x, y = xs[i], ys[i]
    return None


def sampled_membership(p, f, rng: random.Random, samples: int,
                       starts: int, steps: int
                       ) -> Tuple[int, int, List[str]]:
    """Compare membership in the result's HT-models with target membership
    on sampled pairs, then search for a non-target pair the result admits.
    Returns (members, non-members, mismatches)."""
    index = atom_index(p.signature)
    qbit = 1 << index[Q]
    rest = ((1 << len(index)) - 1) & ~qbit
    # Rules in a fixed order, so that the walks and the search, which
    # pick rules at random, repeat in every process.
    inp = Masks(sorted(p.rules, key=canonical_rule), index)
    res = Masks(sorted(f.rules, key=canonical_rule), index)
    xs, ys = _sample_pairs(inp, res, rest, qbit, rng, samples)
    X = np.array(xs, dtype=np.uint64)
    Y = np.array(ys, dtype=np.uint64)
    want = target_member(inp.members, X, Y, np.uint64(qbit))
    got = res.members(X, Y)
    mismatches = [f"pair x={xs[i]:#x} y={ys[i]:#x}: target {want[i]}, "
                  f"result {got[i]}" for i in np.flatnonzero(want != got)]
    # Every neighbour of a sampled target member, one atom away.
    nx, ny = [], []
    for i in np.flatnonzero(want):
        mx, my = _moves(xs[i], ys[i], rest)
        nx += mx
        ny += my
    NX = np.array(nx, dtype=np.uint64)
    NY = np.array(ny, dtype=np.uint64)
    bad = np.flatnonzero(target_member(inp.members, NX, NY, np.uint64(qbit))
                         != res.members(NX, NY))
    mismatches += [f"pair x={nx[i]:#x} y={ny[i]:#x}: result and target "
                   f"disagree" for i in bad[:3]]
    found = _search_missing_rule(inp, res, rest, qbit, rng, starts, steps)
    if found is not None:
        mismatches.append(f"pair x={found[0]:#x} y={found[1]:#x}: outside "
                          f"the target but admitted by the result")
    members = int(want.sum())
    return members, len(xs) - members, mismatches


# --- contexts of verify_sp ----------------------------------------------------

def context_count(n: int) -> int:
    """Depth-1 contexts over n atoms: every fact set, plus each normal rule
    with an empty or one-atom head and at most two body literals."""
    return 2 ** n + (n + 1) * (1 + 2 * n + comb(2 * n, 2))


def context_rules(atoms: List[str], j: int, rule_type) -> List:
    """The j-th depth-1 context over the sorted atoms, built directly from
    that definition (facts first, then single rules by head and body)."""
    n = len(atoms)
    if j < 2 ** n:
        return [rule_type(frozenset([a]), frozenset(), frozenset(),
                          frozenset())
                for i, a in enumerate(atoms) if j >> i & 1]
    j -= 2 ** n
    literals = [(a, False) for a in atoms] + [(a, True) for a in atoms]
    bodies = [[]] + [[l] for l in literals]
    bodies += [[l1, l2] for i, l1 in enumerate(literals)
               for l2 in literals[i + 1:]]
    head = [] if j // len(bodies) == 0 else [atoms[j // len(bodies) - 1]]
    body = bodies[j % len(bodies)]
    return [rule_type(frozenset(head),
                      frozenset(a for a, neg in body if not neg),
                      frozenset(a for a, neg in body if neg), frozenset())]


def persistence_recheck(oracles, p, f, context: List, omega: bool) -> bool:
    """Answer sets of p and f under one context, by the oracle."""
    sigma = set(p.signature)
    expected = {s - {Q} for s in
                oracles.stable_models(list(p.rules) + context, sigma)}
    actual = set(oracles.stable_models(list(f.rules) + context, sigma - {Q}))
    return expected <= actual if omega else expected == actual
