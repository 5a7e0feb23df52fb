"""The three workloads: their seeded inputs, the timed step applied to each
input, and the checks of each output.

A workload object is built once per run.  ``prepare`` makes the inputs
from the seed (this is set-up, not measured).  ``step`` is the timed unit
of work for one program; it calls the library only through ``api``, so a
traced run can wrap those calls.  ``check`` judges one output with the
code of ``checks.py`` and returns a list of problems; ``digest`` lets
later passes be compared with the checked one.
"""

from __future__ import annotations

import hashlib
import random
from collections import namedtuple
from typing import Dict, List

import checks
from checks import Q, canonical_text, parts

QSET = frozenset([Q])
RuleParts = namedtuple("RuleParts", "head pbody nbody nnbody")


def _digest(*values) -> str:
    return hashlib.sha1(repr(values).encode()).hexdigest()


def _seeded(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


class Corpus:
    """The golden programs plus ``CorpusSpec(count=2000, seed=seed)``, each
    with q in its signature, through the paper's evaluation pipeline."""

    name = "corpus"
    tail = True

    def __init__(self, api, seed: int):
        self.api = api
        self.seed = seed
        self.oracles = checks.load_oracles()

    def prepare(self) -> List:
        programs = self.api.generate_corpus(
            self.api.CorpusSpec(count=2000, seed=self.seed))
        return [(canonical_text(p.rules), frozenset(map(parts, p.rules)))
                for p in programs]

    def step(self, item):
        api = self.api
        p = api.parse_program(item[0]).widen(QSET)
        f = api.forget(p, Q)
        printed = api.format_program(f)
        omega, _ = api.satisfies_omega(p, QSET)
        fs = api.f_sem(p, QSET)
        return (p, f, printed, omega, fs, api.program_distance(p, f),
                api.program_distance(p, fs))

    def digest(self, out) -> str:
        _, _, printed, omega, fs, d1, d2 = out
        return _digest(printed, omega, len(fs), d1[0], d2[0])

    def totals(self, out) -> Dict[str, int]:
        return {"output_rules": len(out[1]), "result_distance": out[5][0]}

    @staticmethod
    def parse_problems(item, p) -> List[str]:
        if frozenset(map(parts, p.rules)) != item[1] or Q not in p.signature:
            return ["parsed program differs from the generated one"]
        return []

    def check(self, index: int, item, out) -> List[str]:
        p, f, printed, omega, fs, d1, d2 = out
        problems = self.parse_problems(item, p)
        if printed != canonical_text(f.rules):
            problems.append("printed result is not the canonical text")
        if f.signature != p.signature - QSET:
            return problems + ["result signature is not the input's minus q"]
        small = checks.SmallProgram(self.oracles, p)
        target = small.target()
        if small.models_of(self.oracles, f) != target:
            problems.append("HT-models of forget differ from the target")
        if small.models_of(self.oracles, fs) != target:
            problems.append("HT-models of f_sem differ from the target")
        if omega != small.omega():
            problems.append(f"satisfies_omega says {omega}")
        if not checks.distance_witness_ok(p, f, *d1):
            problems.append("distance to forget has no valid witness")
        if not checks.distance_witness_ok(p, fs, *d2):
            problems.append("distance to f_sem has no valid witness")
        return problems


def stress_text(k: int, rng: random.Random) -> str:
    """The stress family at k, atoms renamed and rules shuffled by the
    seed: ``q | u_i :- b_i, not c_i.`` and ``t_i :- q, d_i.`` for i < k,
    plus ``v :- not q.`` and ``q :- not not q, e.``"""
    pool = [a + b for a in "abcdefghijklmnoprstuvwxyz"
            for b in "abcdefghijklmnopqrstuvwxyz"]
    names = iter(rng.sample(pool, 5 * k + 2))
    rules = []
    for _ in range(k):
        u, b, c, t, d = (next(names) for _ in range(5))
        rules += [f"q | {u} :- {b}, not {c}.", f"{t} :- q, {d}."]
    rules += [f"{next(names)} :- not q.", f"q :- not not q, {next(names)}."]
    rng.shuffle(rules)
    return "\n".join(rules) + "\n"


def ballast_text(rng: random.Random) -> str:
    """The 1000 distinct random rules over x0..x49 of acceptance criterion
    8 (drawn from ``random.Random(42)``), with the atoms renamed among
    themselves by the seed, plus the 3-rule chain
    ``d :- not c. a :- q. q :- b.``"""
    draw = random.Random(42)
    atoms = [f"x{i}" for i in range(50)]
    rename = dict(zip(atoms, rng.sample(atoms, len(atoms))))

    def random_rule():
        head = draw.sample(atoms, draw.randint(1, 2))
        pool = [a for a in atoms if a not in head]
        pbody = draw.sample(pool, draw.randint(0, 3))
        pool = [a for a in pool if a not in pbody]
        nbody = draw.sample(pool, draw.randint(0, 2))
        pool = [a for a in pool if a not in nbody]
        nnbody = draw.sample(pool, draw.randint(0, 1))
        return RuleParts(*map(frozenset, (head, pbody, nbody, nnbody)))

    rules = set()
    while len(rules) < 1000:
        rules.add(random_rule())
    renamed = [RuleParts(*(frozenset(map(rename.get, s)) for s in r))
               for r in rules]
    return canonical_text(renamed) + "d :- not c.\na :- q.\nq :- b.\n"


class Stress:
    """The stress family at k = 3, 4, 5 and the 1000-rule ballast program,
    each forgotten on q, printed, and compared with its input."""

    name = "stress"
    tail = False
    samples = 240
    starts, steps = 60, 30
    # Only results of inputs this small (the family's, 2k + 2 rules) are
    # searched.  The ballast's result is almost all input rules, which
    # the untouched-rule check covers, and its 50 atoms and 1003 input
    # rules would make its search take 9 s a run.
    search_max_input = 12

    def __init__(self, api, seed: int):
        self.api = api
        self.seed = seed

    def prepare(self) -> List[str]:
        rng = random.Random(self.seed)
        return [stress_text(k, rng) for k in (3, 4, 5)] + [ballast_text(rng)]

    def step(self, text: str):
        api = self.api
        p = api.parse_program(text)
        f = api.forget(p, Q)
        return p, f, api.format_program(f), api.program_distance(p, f)

    def digest(self, out) -> str:
        return _digest(out[2], out[3][0])

    def totals(self, out) -> Dict[str, int]:
        return {"output_rules": len(out[1]), "result_distance": out[3][0]}

    def check(self, index: int, text: str, out) -> List[str]:
        p, f, printed, (total, matching) = out
        problems = []
        if len(p) != text.count("\n"):
            problems.append("parsed program lost rules")
        if printed != canonical_text(f.rules):
            problems.append("printed result is not the canonical text")
        if f.signature != p.signature - QSET or any(
                Q in r.atoms for r in f.rules):
            return problems + ["result mentions q or changes the signature"]
        atoms = checks.atom_index(p.signature)
        problems += checks.normal_form_problems(list(f.rules), atoms)
        problems += checks.untouched_rule_problems(p, f, atoms)
        members, others, mismatches = checks.sampled_membership(
            p, f, _seeded(self.seed, index), self.samples,
            self.starts if len(p) <= self.search_max_input else 0,
            self.steps)
        if not members or not others:
            problems.append(f"sample holds {members} members and {others} "
                            f"non-members; it needs both")
        problems += mismatches[:3]
        if not checks.distance_witness_ok(p, f, total, matching):
            problems.append("distance has no valid witness")
        return problems


class Persistence(Corpus):
    """``verify_sp`` at depth 1 over the first 1000 programs of the corpus
    of ``Corpus`` (all golden programs among them), parsed from their
    canonical text; each pass runs in a fresh process, so every context
    table starts cold."""

    name = "persistence"
    rechecks = 120
    prefix = 1000

    def __init__(self, api, seed: int):
        super().__init__(api, seed)
        self.distance = api.program_distance
        self.recheck = set()

    def prepare(self) -> List:
        items = super().prepare()[:self.prefix]
        self.recheck = set(random.Random(self.seed).sample(
            range(len(items)), self.rechecks))
        return items

    def step(self, item):
        p = self.api.parse_program(item[0]).widen(QSET)
        f = self.api.forget(p, Q)
        return p, f, self.api.verify_sp(p, Q, depth=1, result=f)

    def digest(self, out) -> str:
        _, f, report = out
        return _digest(canonical_text(f.rules), report.ok, report.omega,
                       report.contexts_checked)

    def totals(self, out) -> Dict[str, int]:
        p, f, _ = out
        return {"output_rules": len(f),
                "result_distance": self.distance(p, f)[0]}

    def check(self, index: int, item, out) -> List[str]:
        p, f, report = out
        problems = self.parse_problems(item, p)
        if not report.ok:
            problems.append(f"{len(report.failures)} contexts fail")
        n = len(p.signature - QSET)
        if report.contexts_checked != checks.context_count(n):
            problems.append(f"{report.contexts_checked} contexts checked, "
                            f"{checks.context_count(n)} expected")
        if index in self.recheck:
            rng = _seeded(self.seed, index)
            omega = checks.SmallProgram(self.oracles, p).omega()
            if omega != report.omega:
                problems.append(f"report says omega {report.omega}")
            atoms = sorted(p.signature - QSET)
            for _ in range(2):
                j = rng.randrange(checks.context_count(n))
                context = checks.context_rules(atoms, j, self.api.Rule)
                if not checks.persistence_recheck(self.oracles, p, f,
                                                  context, omega):
                    problems.append(f"oracle disagrees on context {j}")
        return problems


WORKLOADS = {w.name: w for w in (Corpus, Stress, Persistence)}
