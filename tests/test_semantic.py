"""Obstruction criterion, target model sets, counter-model construction."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aspforget.core import Program
from aspforget.distance import rule_size
from aspforget.forget import forget, is_q_forgettable
from aspforget.ht_semantics import ht_models, strongly_equivalent
from aspforget.parser_io import parse_program
from aspforget.semantic import f_sem, fsp_target_models, satisfies_omega

from . import oracles
from .conftest import ATOM_POOL, EXTRA_ATOMS
from .conftest import programs as program_strategy


def fs(*atoms):
    return frozenset(atoms)


# ---------------------------------------------------------------------------
# relevant extensions


def rel(p, v, y):
    """The ``rel`` of the obstruction check's candidate for ``y``."""
    _, report = satisfies_omega(p, v)
    return next(c.rel for c in report.candidates if c.y == y)


def test_rel_sets_plain_total_model(golden):
    # {t} is already a total model on its own: no extension needed
    assert rel(golden["self_cycle_mixed"], {"q"}, fs("t")) == {fs()}


def test_rel_sets_requires_forgotten_atom(golden):
    # {u,s} only becomes a total model with q's help
    assert rel(golden["self_cycle_mixed"], {"q"}, fs("u", "s")) \
        == {fs("q")}


def test_rel_sets_two_extensions(golden):
    # {u,s,t} supports both a q-free and a q-carrying equilibrium
    assert rel(golden["self_cycle_mixed"], {"q"}, fs("u", "s", "t")) \
        == {fs(), fs("q")}


def test_rel_sets_no_total_model(prog):
    p = prog(":- a. :- not a.")
    assert rel(p, {"q"}, fs("a")) == set()
    assert rel(p, {"q"}, fs()) == set()


def test_rel_minimality(prog):
    # q alone suffices, so the two-atom extension is not minimal
    p = prog("q :- a, not not q. :- a, not q.")
    assert rel(p, {"q", "b"}, fs("a")) == {fs("q")}


# ---------------------------------------------------------------------------
# the obstruction criterion


def test_omega_satisfied_on_mixed_self_cycle(golden):
    verdict, report = satisfies_omega(golden["self_cycle_mixed"], {"q"})
    assert verdict
    assert report.witness == fs("s", "t", "u")


def test_omega_witness_families_have_no_least(golden):
    p = golden["self_cycle_mixed"]
    _, report = satisfies_omega(p, {"q"})
    cand = next(c for c in report.candidates if c.y == report.witness)
    assert cand.obstructs and not cand.has_least
    assert len(cand.rel) == 2
    # neither family is contained in the other
    fams = dict(oracles.omega_families(p.rules, p.signature, {"q"}))
    a, b = fams[report.witness].values()
    assert not (a <= b) and not (b <= a)


def test_omega_false_on_pure_self_cycle(golden):
    verdict, report = satisfies_omega(golden["self_cycle_pos"], {"q"})
    assert not verdict
    assert report.witness is None


def test_forgettable_implies_unobstructed(golden):
    for p in golden.values():
        if is_q_forgettable(p, "q"):
            assert not satisfies_omega(p, {"q"})[0]


def test_unobstructed_does_not_imply_forgettable(golden):
    # the pure self-cycle with a consumer is the standing counterexample
    p = golden["self_cycle_pos"]
    assert not is_q_forgettable(p, "q")
    assert not satisfies_omega(p, {"q"})[0]


@given(program_strategy, st.frozensets(st.sampled_from(EXTRA_ATOMS),
                                       max_size=3),
       st.frozensets(st.sampled_from(ATOM_POOL), min_size=1, max_size=2))
@settings(max_examples=60, deadline=None)
# random draws seldom give one Y two families; pin an obstruction, two
# nested families, and at Y={x,y} a least family without a greatest one
# (obstruction false) and a greatest family without a least one (true)
@example(parse_program("a :- b. b :- not not b. q :- not b, not c, "
                       "not not a."), frozenset({"a0", "p"}), frozenset({"b"}))
@example(parse_program("a :- b, not c, not not a. b | q."),
         frozenset({"b0"}), frozenset({"b", "q"}))
@example(parse_program("a | b | c. x :- a. x :- b. y :- a. y :- c."),
         frozenset(), frozenset({"a", "b", "c"}))
@example(parse_program("a | b | c. x :- b. y :- c."),
         frozenset(), frozenset({"a", "b", "c"}))
def test_omega_and_target_match_naive_oracle(p, extra, v):
    # the extra atoms put forgotten bits mid-row and kept atoms past bit 2
    p = p.widen(extra)
    sigma = p.signature
    want = oracles.omega_families(p.rules, sigma, v)
    verdict, report = satisfies_omega(p, v)
    assert report.witness == oracles.omega(p.rules, sigma, v)
    assert verdict == (report.witness is not None)
    assert [(c.y, c.rel, c.has_least) for c in report.candidates] \
        == [(y, set(fams), oracles.has_least(fams)) for y, fams in want]
    target = fsp_target_models(p, v)
    assert target.sigma == sigma - v
    assert {(x, y) for x, y in target.members} \
        == oracles.target_pairs(p.rules, sigma, v)


# ---------------------------------------------------------------------------
# target model sets


def test_target_equals_result_models_chain(golden, prog):
    want = ht_models(prog("t :- s. t :- w. v :- not s, not w."))
    got = fsp_target_models(golden["chain_pos"], {"q"})
    assert got.sigma == want.sigma and got.members == want.members


def test_target_equals_result_models_self_cycle(golden, prog):
    want = ht_models(prog("a :- not not a."))
    got = fsp_target_models(golden["self_cycle_pos"], {"q"})
    assert got.sigma == want.sigma and got.members == want.members


def test_target_without_the_atom_is_plain_ht(prog):
    p = prog("a.")
    got = fsp_target_models(p, {"q"})
    want = ht_models(p)
    assert got.sigma == want.sigma and got.members == want.members


def test_target_empty_when_no_supported_world(prog):
    # no Y extends to a total model: the target prescribes no models at all
    p = prog(":- a. :- not a.")
    assert fsp_target_models(p, {"q"}).members == frozenset()


def test_target_multi_atom_forgetting(prog):
    p = prog("t :- q. q :- s. s :- w.")
    got = fsp_target_models(p, {"q", "s"})
    want = ht_models(forget(forget(p, "q"), "s"), got.sigma)
    assert got.members == want.members


# ---------------------------------------------------------------------------
# counter-model construction


def test_fsem_realizes_the_target(golden):
    for name in ("chain_pos", "linked_chain", "disjunctive_mixed",
                 "self_cycle_pos"):
        p = golden[name]
        result = f_sem(p, {"q"})
        want = fsp_target_models(p, {"q"})
        got = ht_models(result, want.sigma)
        assert got.members == want.members


def test_fsem_equivalent_to_syntactic_result(golden):
    for name in ("chain_pos", "linked_chain", "disjunctive_mixed"):
        p = golden[name]
        assert strongly_equivalent(f_sem(p, {"q"}), forget(p, "q"))


def test_fsem_rule_count_linked_chain(golden):
    # 14 excluded here-worlds plus 7 excluded total worlds
    result = f_sem(golden["linked_chain"], {"q"})
    assert len(result) == 21
    constraints = [r for r in result if r.is_constraint]
    assert len(constraints) == 7


def test_fsem_rule_count_disjunctive_mixed(golden):
    # 60 excluded here-worlds plus 16 excluded total worlds
    result = f_sem(golden["disjunctive_mixed"], {"q"})
    assert len(result) == 76
    constraints = [r for r in result if r.is_constraint]
    assert len(constraints) == 16


def test_fsem_on_trivial_target_is_empty(prog):
    # every interpretation is a target model: nothing to exclude
    p = Program(signature={"a", "q"})
    assert f_sem(p, {"q"}) == Program()


def test_fsem_exact_self_cycle(golden, prog):
    assert f_sem(golden["self_cycle_pos"], {"q"}) == prog("a :- not not a.")


def test_fsem_rule_size_floor(golden):
    for name in ("linked_chain", "disjunctive_mixed", "chain_pos"):
        p = golden[name]
        result = f_sem(p, {"q"})
        floor = len(p.signature - {"q"})
        for r in result:
            assert rule_size(r) >= floor


def test_fsem_mentions_no_forgotten_atom(golden):
    for p in golden.values():
        assert "q" not in f_sem(p, {"q"}).signature


@given(program_strategy)
@settings(max_examples=40, deadline=None)
def test_fsem_realizes_target_random(p):
    want = fsp_target_models(p, {"q"})
    got = ht_models(f_sem(p, {"q"}), want.sigma)
    assert got.members == want.members
