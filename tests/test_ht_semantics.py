"""Model enumeration against an independently written naive oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspforget.core import Program, Rule
from aspforget.ht_semantics import (DEFAULT_SIGNATURE_LIMIT,
                                    SignatureLimitError, WorldMasks,
                                    answer_sets, answer_sets_from_pairs,
                                    equivalent, ht_models,
                                    strongly_equivalent)
from aspforget.normalform import normal_form
from aspforget.parser_io import parse_program
from aspforget.semantic import fsp_target_models

from . import oracles
from .conftest import ATOM_POOL, EXTRA_ATOMS
from .conftest import programs as program_strategy


def pairs(p, sigma=None):
    return {(m.x, m.y) for m in ht_models(p, sigma).members}


@pytest.mark.parametrize("n", range(15))
def test_world_masks_match_their_definition(n):
    # bit m of with_[a] is set iff world m has a's bit, from no atom to
    # well past the nine atoms of the oracle tests
    atoms = [f"x{i:02d}" for i in range(n)]
    masks = WorldMasks(frozenset(atoms))
    assert masks.full == (1 << (1 << n)) - 1
    for i, a in enumerate(atoms):
        bits = format(masks.with_[a], f"0{1 << n}b")[::-1]
        assert bits == "".join("1" if m >> i & 1 else "0"
                               for m in range(1 << n))
        assert masks.without[a] == masks.full ^ masks.with_[a]
        assert masks.bit[a] == 1 << i


def test_ht_models_single_fact(prog):
    assert pairs(prog("a.")) == {(frozenset({"a"}), frozenset({"a"}))}


def test_ht_models_empty_program_over_widened_signature(prog):
    p = Program(signature={"a"})
    a = frozenset({"a"})
    assert pairs(p) == {(frozenset(), frozenset()), (frozenset(), a), (a, a)}


def test_ht_models_self_supporting_double_negation(prog):
    # <{},{a}> is not a model: the reduct keeps a<- which {} fails
    a = frozenset({"a"})
    assert pairs(prog("a :- not not a.")) == {(frozenset(), frozenset()),
                                              (a, a)}


def test_answer_sets_choice_by_double_negation(prog):
    assert answer_sets(prog("a :- not not a.")) == {frozenset(),
                                                    frozenset({"a"})}


def test_answer_sets_golden_self_cycle(golden):
    assert answer_sets(golden["self_cycle_mixed"]) \
        == {frozenset({"q", "u", "s"}), frozenset({"t"})}


def test_answer_sets_empty_program():
    assert answer_sets(Program()) == {frozenset()}


def test_strong_equivalence_examples(prog):
    assert strongly_equivalent(prog("a :- b, not not b."), prog("a :- b."))
    assert not strongly_equivalent(prog("p."), prog("p :- not c."))


def test_equivalent_but_not_strongly(prog):
    p1, p2 = prog("p."), prog("p :- not c.")
    assert equivalent(p1, p2)
    assert not strongly_equivalent(p1, p2)
    # the separation shows up once a context can derive c
    assert answer_sets(p1 | prog("c.")) != answer_sets(p2 | prog("c."))


def test_signature_guard(prog):
    wide = Program(signature={f"a{i}" for i in range(DEFAULT_SIGNATURE_LIMIT + 1)})
    with pytest.raises(SignatureLimitError):
        ht_models(wide)
    # explicit limit overrides in both directions
    with pytest.raises(SignatureLimitError):
        ht_models(prog("a :- b, c."), limit=2)
    assert ht_models(prog("a :- b, c."), limit=3).members


def test_signature_guard_env(prog, monkeypatch):
    monkeypatch.setenv("ASPFORGET_SIGNATURE_LIMIT", "2")
    with pytest.raises(SignatureLimitError):
        ht_models(prog("a :- b, c."))
    monkeypatch.setenv("ASPFORGET_SIGNATURE_LIMIT", "3")
    assert ht_models(prog("a :- b, c.")).members


@given(program_strategy)
@settings(max_examples=80, deadline=None)
def test_matches_naive_oracle(p):
    sigma = p.signature
    assert pairs(p) == oracles.ht_pairs(p.rules, sigma)
    assert answer_sets(p) == oracles.stable_models(p.rules, sigma)


@given(program_strategy)
@settings(max_examples=50, deadline=None)
def test_total_models_are_classical_models(p):
    m = ht_models(p)
    totals = {y for x, y in m.members if x == y}
    assert totals == oracles.classical_models(p.rules, p.signature)
    assert answer_sets(p) <= totals


@given(program_strategy)
@settings(max_examples=40, deadline=None)
def test_answer_sets_stable_under_widening(p):
    widened = p.widen(["zz"])
    assert answer_sets(widened) == answer_sets(p)


def test_strong_equivalence_uses_union_signature(prog):
    # equal on their own signatures but separable over the union
    p1 = prog("a.")
    p2 = prog("a. b :- b.")
    assert strongly_equivalent(p1, p2)
    p3 = prog("a. b :- not not b.")
    assert not strongly_equivalent(p1, p3)


def test_normal_form_strongly_equivalent_on_corpus(small_corpus):
    for p in small_corpus[:60]:
        assert strongly_equivalent(p, normal_form(p))


def assert_indexed(models):
    """The index invariant: each key Y is a world of the signature and in
    its own entry (so no entry is empty), and every X of that entry lies
    below Y; on the masks, bit Y is set in ``rows[Y]`` and every set bit X
    is a submask of Y."""
    worlds = 1 << len(models.sigma)
    for y, row in models.rows.items():
        assert 0 <= y < worlds and row >> y & 1
        assert all(x & ~y == 0 for x in range(row.bit_length()) if row >> x & 1)


@given(program_strategy, program_strategy,
       st.frozensets(st.sampled_from(ATOM_POOL)))
@settings(max_examples=60, deadline=None)
def test_meet_is_models_of_union(p1, p2, extra):
    sigma = p1.signature | p2.signature | extra
    m1, m2 = ht_models(p1, sigma), ht_models(p2, sigma)
    meet = m1 & m2
    union = p1.rules | p2.rules
    assert meet.sigma == sigma
    assert meet.members == oracles.ht_pairs(union, sigma)
    assert answer_sets_from_pairs(meet) == oracles.stable_models(union, sigma)
    whole = Program(union, signature=sigma)
    for models in (m1, m2, meet, fsp_target_models(whole, {"q"})):
        assert_indexed(models)



def assert_matches_oracle(p, sigma):
    models = ht_models(p, sigma)
    want = oracles.ht_pairs(p.rules, sigma)
    assert models.members == want
    # the JSON listing: sorted atom lists; the text listing: by size
    assert models.pairs_by_atoms() \
        == sorted([sorted(x), sorted(y)] for x, y in want)
    assert list(models.ordered_pairs()) == sorted(
        want, key=lambda m: (len(m[1]), sorted(m[1]), len(m[0]), sorted(m[0])))
    assert answer_sets_from_pairs(models) \
        == oracles.stable_models(p.rules, sigma)
    assert_indexed(models)


@given(program_strategy, st.frozensets(st.sampled_from(EXTRA_ATOMS)))
@settings(max_examples=40, deadline=None)
def test_matches_naive_oracle_up_to_nine_atoms(p, extra):
    assert_matches_oracle(p, p.signature | extra)


def ring_program(n):
    """Rules of every kind over atoms x0..x(n-1), each rule reaching the
    next atoms round the ring."""
    xs = [f"x{i}" for i in range(n)]
    rules = []
    for i in range(n):
        a, b, c, d = (frozenset([xs[(i + k) % n]]) for k in range(4))
        rules.append((Rule(a | b, d, c, frozenset()),
                      Rule(a, frozenset(), frozenset(), b),
                      Rule(frozenset(), a | b, c, frozenset()))[i % 3])
    return Program(rules, signature=xs)


@pytest.mark.parametrize("n", [0, 1, 3, 4, 7, 8])
def test_matches_naive_oracle_at_fixed_sizes(n):
    p = ring_program(n)
    assert_matches_oracle(p, p.signature)
    assert_matches_oracle(Program(signature=p.signature), p.signature)
