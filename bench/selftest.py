"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

For each workload it runs a few programs through one checked pass, first
unchanged (no program may fail), then with ``forget`` faulty for one
program: one rule dropped from its result, or the result of another
program handed back (the same program without its first rule, over the
same signature).  Both faults must make that program, and only that
program, fail.  On ``stress`` the dropped rule is the first of a sweep
whose loss changes the models; the sweep reports the share of single
dropped rules that the sampled check catches, and for the k=3 result
how many of the dropped rules the others entail.  Exits 0 when every
fault is caught.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the thread variables before numpy loads)

import itertools  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402

SEED = 0
# Programs used per workload; the fault hits the first one.
PICKED = {"corpus": [0, 1, 9, 20, 21], "stress": [0, 3],
          "persistence": [0, 1, 9, 20, 21]}
DROP_TRIALS = 10


def failing(workload, items):
    return run.one_pass(workload, items, 0, None, None)["failed"]


def faulty(forget, victim, kind, which=0):
    """``forget`` that spoils the result for the program ``victim``."""
    def patched(p, q):
        if p.rules != victim.rules:
            return forget(p, q)
        if kind == "drop":
            rules = sorted(forget(p, q).rules, key=str)
            del rules[which]
        else:
            rules = forget(type(p)(sorted(p.rules, key=str)[1:],
                                   p.signature), q).rules
        return type(p)(rules, p.signature - {q})
    return patched


def changes_models(rules, which, signature) -> bool:
    """Does dropping ``rules[which]`` change the HT-models?  It does iff
    some pair violates that rule and no other.  Every pair violating it
    is tried: its own atoms in each violating state (out, in Y only, in
    X and Y), the other atoms in every state."""
    index = checks.atom_index(signature)
    rule = rules[which]
    others = checks.Masks(rules[:which] + rules[which + 1:], index)
    alone = checks.Masks([rule], index)
    own = sorted(rule.atoms)
    xs = np.zeros(1, dtype=np.uint64)
    ys = np.zeros(1, dtype=np.uint64)
    for a in sorted(set(index) - set(own) - {checks.Q}):
        b = np.uint64(1 << index[a])
        xs = np.concatenate([xs, xs, xs | b])
        ys = np.concatenate([ys, ys | b, ys | b])
    for states in itertools.product(range(3), repeat=len(own)):
        x = sum(1 << index[a] for a, s in zip(own, states) if s == 2)
        y = sum(1 << index[a] for a, s in zip(own, states) if s)
        if (alone.violations([x], [y])[0, 0]
                and others.members(xs | np.uint64(x),
                                   ys | np.uint64(y)).any()):
            return True
    return False


def sweep(api, workload, item, label, exact):
    """Drop each of about ten rules of one result in turn.  With ``exact``
    the drops that leave the models unchanged, which no check of the
    models can see, are told apart.  Returns the first model-changing
    drop (the first drop if none is known to be) and a line of figures."""
    forget = api.forget
    program = api.parse_program(item)
    rules = sorted(forget(program, "q").rules, key=str)
    trials = range(0, len(rules), max(1, len(rules) // DROP_TRIALS))
    hits, changing, changing_hits = 0, [], 0
    for which in trials:
        api.forget = faulty(forget, program, "drop", which)
        hit = failing(workload, [item]) == [0]
        api.forget = forget
        hits += hit
        if exact and changes_models(rules, which, program.signature):
            changing.append(which)
            changing_hits += hit
    line = (f"{'':12s} one dropped rule of the {len(rules)}-rule {label} "
            f"result is caught in {hits} of {len(trials)} trials")
    if exact:
        line += (f"; {len(changing)} of them change the models, and "
                 f"{changing_hits} of those are caught")
    return (changing + [0])[0], line


def main() -> int:
    ok = True
    for name, picked in PICKED.items():
        api = run.load_api()
        workload, all_items = run.prepare(api, name, SEED)
        items = [all_items[i] for i in picked]
        workload.recheck = set(range(len(items)))
        text = items[0] if name == "stress" else items[0][0]
        victim = api.parse_program(text)
        forget = api.forget
        clean = failing(workload, items)
        which, lines = 0, []
        if name == "stress":
            # Dropping a rule that the others entail changes no model,
            # so the required drop on stress is one that does.
            which, line = sweep(api, workload, items[0], "k=3", True)
            lines = [line, sweep(api, workload, items[1], "ballast",
                                 False)[1]]
        caught = {}
        for kind in ("drop", "replace"):
            api.forget = faulty(forget, victim, kind, which)
            caught[kind] = failing(workload, items)
            api.forget = forget
        good = not clean and all(v == [0] for v in caught.values())
        ok &= good
        print(f"{name:12s} clean fails {clean}, dropped rule {which} fails "
              f"{caught['drop']}, replaced program fails "
              f"{caught['replace']}: {'ok' if good else 'NOT CAUGHT'}")
        for line in lines:
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
