"""Slow, definition-literal oracles the tests freeze expectations against.

Nothing here reuses the library's algorithms.  Satisfaction, reducts,
model enumeration, the obstruction's families and the target models are
restated from scratch in the most naive way possible, subsumption
compares every pair of rules, and program distance enumerates every
partial injective mapping.  Keep these dumb: their only job is to be
obviously correct.
"""

from itertools import combinations, permutations

from aspforget.core import Program, Rule


def powerset(atoms):
    items = sorted(atoms)
    for k in range(len(items) + 1):
        for combo in combinations(items, k):
            yield frozenset(combo)


def holds(i, r):
    """Classical satisfaction: not a == a absent, not not a == a present."""
    body_true = r.pbody <= i and not (r.nbody & i) and r.nnbody <= i
    return not body_true or bool(r.head & i)


def classical_models(rules, sigma):
    return {i for i in powerset(sigma) if all(holds(i, r) for r in rules)}


def reduct_rules(rules, i):
    return [Rule(r.head, r.pbody, frozenset(), frozenset())
            for r in rules if not (r.nbody & i) and r.nnbody <= i]


def ht_pairs(rules, sigma):
    out = set()
    for y in powerset(sigma):
        if not all(holds(y, r) for r in rules):
            continue
        red = reduct_rules(rules, y)
        for x in powerset(y):
            if all(holds(x, r) for r in red):
                out.add((x, y))
    return out


def stable_models(rules, sigma):
    pairs = ht_pairs(rules, sigma)
    return {y for (x, y) in pairs
            if x == y and not any(x2 < y and (x2, y) in pairs
                                  for x2 in powerset(y))}


def omega_families(rules, sigma, v):
    """Per Y over sigma - v, smallest first: the minimal extensions A of Y
    into v with <Y u A, Y u A> a model, each mapped to its family, the
    here-worlds of Y u A with v removed."""
    pairs = ht_pairs(rules, sigma)
    here = {}
    for x, y in pairs:
        here.setdefault(y, set()).add(x)
    v = v & sigma
    out = []
    for y in powerset(sigma - v):
        fams = {}
        for a in powerset(v):
            if (y | a, y | a) not in pairs:
                continue
            if any(a2 < a and (y | a2, y | a) in pairs for a2 in powerset(a)):
                continue
            fams[a] = frozenset(x - v for x in here[y | a])
        out.append((y, fams))
    return out


def target_pairs(rules, sigma, v):
    """The target models: for each Y with some family, the here-worlds in
    every one of them."""
    out = set()
    for y, fams in omega_families(rules, sigma, v):
        if fams:
            common = frozenset.intersection(*fams.values())
            out |= {(x, y) for x in common}
    return out


def has_least(fams):
    """True iff some family lies inside all the others."""
    return any(all(m <= o for o in fams.values()) for m in fams.values())


def omega(rules, sigma, v):
    """The first Y whose families are non-empty with no family inside all
    the others, or None."""
    for y, fams in omega_families(rules, sigma, v):
        if fams and not has_least(fams):
            return y
    return None


def naive_minimal_rules(rules):
    """Drop every rule that another rule subsumes: the other rule's head
    and each of its body parts are subsets of this rule's."""
    rules = set(rules)
    return {r for r in rules
            if not any(s != r and s.head <= r.head and s.pbody <= r.pbody
                       and s.nbody <= r.nbody and s.nnbody <= r.nnbody
                       for s in rules)}


def rule_lits(r):
    return ({("+", a) for a in r.pbody}
            | {("-", a) for a in r.nbody}
            | {("--", a) for a in r.nnbody})


def naive_rule_distance(r1, r2):
    return len(r1.head ^ r2.head) + len(rule_lits(r1) ^ rule_lits(r2))


def naive_rule_size(r):
    return len(r.head) + len(r.pbody) + len(r.nbody) + len(r.nnbody)


def naive_program_distance(p1, p2):
    """Minimum over every subset of p1, injected every way into p2."""
    rules1 = sorted(p1, key=str)
    rules2 = sorted(p2, key=str)
    total = sum(naive_rule_size(r) for r in rules1 + rules2)
    best = total
    n1, n2 = len(rules1), len(rules2)
    for k in range(min(n1, n2) + 1):
        for left in combinations(range(n1), k):
            for right in permutations(range(n2), k):
                cost = sum(naive_rule_distance(rules1[a], rules2[b])
                           for a, b in zip(left, right))
                cost += sum(naive_rule_size(rules1[i])
                            for i in range(n1) if i not in left)
                cost += sum(naive_rule_size(rules2[i])
                            for i in range(n2) if i not in right)
                best = min(best, cost)
    return best
