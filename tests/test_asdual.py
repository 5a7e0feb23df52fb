"""Blocker-set construction: every way to keep an atom underivable."""

from hypothesis import given, settings
from hypothesis import strategies as st

from aspforget.asdual import as_dual
from aspforget.core import Rule
from aspforget.parser_io import parse_program

from . import oracles


def dual(q, text):
    return as_dual(q, parse_program(text).rules)


def blocker(n="", nn=""):
    """The (N, NN) pair of atoms under ``not`` and under ``not not``."""
    return frozenset(n), frozenset(nn)


def test_two_positive_rules(prog):
    assert dual("q", "q :- s. q :- w.") == {blocker("sw")}


def test_mixed_rules_four_blockers(prog):
    got = dual("q", "q :- s, t. q | u :- w.")
    want = {
        blocker("s", "u"),
        blocker("t", "u"),
        blocker("sw"),
        blocker("tw"),
    }
    assert got == want


def test_empty_rule_set():
    assert as_dual("q", frozenset()) == {blocker()}


def test_fact_cannot_be_blocked(prog):
    assert dual("q", "q.") == frozenset()
    # one unblockable rule poisons the whole set
    assert dual("q", "q. q :- s.") == frozenset()


def test_negative_body_flips_to_double_negation(prog):
    # blocking q <- not t means asserting not not t
    assert dual("q", "q :- not t.") == {blocker(nn="t")}
    # and blocking q <- not not t takes not t: three not collapse to one
    assert dual("q", "q :- not not t.") == {blocker("t")}


def test_head_alternatives_block_via_double_negation(prog):
    got = dual("q", "q | u | v :- s.")
    want = {
        blocker("s"),
        blocker(nn="u"),
        blocker(nn="v"),
    }
    assert got == want


def test_forgotten_atom_never_appears(prog):
    for n, nn in dual("q", "q | u :- s, not q."):
        assert "q" not in n | nn


def test_blocker_sizes_and_depths(prog):
    blockers = dual("q", "q :- s, t. q | u :- w. q :- not v.")
    for n, nn in blockers:
        assert len(n) + len(nn) <= 3
        # positive body atoms go under not; head and not-body atoms
        # under not not
        assert n <= {"s", "t", "w"} and nn <= {"u", "v"}


def _option_rules():
    atoms = st.sampled_from(("a", "b", "c"))
    sets = st.frozensets(atoms, max_size=2)
    return st.builds(lambda h, pb, nb, nnb: Rule(h | {"q"}, pb, nb, nnb),
                     sets, sets, sets, sets)


@given(st.frozensets(_option_rules(), max_size=3))
@settings(max_examples=60, deadline=None)
def test_blockers_characterize_headless_satisfaction(rules):
    """Some blocker holds in world Y iff Y satisfies every rule sans q.

    Blocker literals are all negations, so their truth is fixed by the
    there-world alone; the equivalence is therefore stated for total
    worlds.  (It does not lift to the here-world: `not not u` can hold at
    <X,Y> while the stripped rule u<-a fails X.)
    """
    sigma = {"a", "b", "c"}
    family = as_dual("q", rules)
    stripped = [Rule(r.head - {"q"}, r.pbody - {"q"},
                     r.nbody - {"q"}, r.nnbody - {"q"}) for r in rules]
    for y in oracles.powerset(sigma):
        blocked = any(not n & y and nn <= y for n, nn in family)
        sat = all(oracles.holds(y, r) for r in stripped)
        assert blocked == sat
