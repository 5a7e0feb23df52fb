"""Normal form: the four rewrite steps, their order, and preserved meaning."""

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from aspforget.core import Program
from aspforget.ht_semantics import strongly_equivalent
from aspforget.normalform import _minimal_rules, is_normal_form, normal_form
from aspforget.parser_io import parse_program, parse_rule

from . import oracles
from .conftest import programs as program_strategy, rules as rule_strategy


def test_detects_duplicate_body_forms(prog):
    assert not is_normal_form(prog("a :- b, not not b."))
    assert not is_normal_form(prog("a :- b, not b."))


def test_detects_head_body_overlap(prog):
    assert not is_normal_form(prog("a | b :- not b."))
    assert not is_normal_form(prog("a :- a."))


def test_detects_non_minimal_rules(prog):
    assert not is_normal_form(prog("a :- b. a :- b, c."))
    assert is_normal_form(prog("a :- b. a :- c."))


def test_tautologies_dropped(prog):
    assert normal_form(prog("p :- p. a :- b.")) == prog("a :- b.")


def test_double_negation_dropped_next_to_positive(prog):
    assert normal_form(prog("a :- b, not not b.")) == prog("a :- b.")


def test_head_atom_dropped_under_its_own_negation(prog):
    assert normal_form(prog("a | b :- not b, c.")) == prog("a :- not b, c.")


def test_head_drop_may_create_constraint(prog):
    # the whole head can disappear; the constraint stays behind
    assert normal_form(prog("a :- not a, c.")) == prog(":- not a, c.")


def test_subsumed_rules_dropped(prog):
    assert normal_form(prog("a :- b. a :- b, c.")) == prog("a :- b.")


def test_subsumption_is_strict(prog):
    # a rule never subsumes itself, and a smaller head subsumes a larger one
    assert normal_form(prog("a :- b.")) == prog("a :- b.")
    assert normal_form(prog("a :- b. a | c :- b.")) == prog("a :- b.")
    assert normal_form(prog("a | c :- b. c :- b, d.")) \
        == prog("a | c :- b. c :- b, d.")


def test_subsumption_keeps_different_body_forms(prog):
    p = prog("a :- not b. a :- b.")
    assert normal_form(p) == p
    p = prog("a :- not b. a :- not not b.")
    assert normal_form(p) == p


def test_subsumed_rule_loses_to_its_witness(prog):
    p = prog("a :- b. a | c :- b, not d.")
    assert normal_form(p) == prog("a :- b.")


@given(st.lists(rule_strategy, max_size=12))
@settings(max_examples=200, deadline=None)
def test_minimal_rules_agrees_with_pairwise_oracle(rules):
    kept = _minimal_rules(rules)
    assert len(kept) == len(set(kept))
    assert set(kept) == oracles.naive_minimal_rules(rules)


# 65 to 160 rules, duplicates included: over more than 64 distinct rules
# the per-element rule bitsets span more than one 64-bit word.  Rules of
# two or more elements, so that the empty rule or a fact does not subsume
# nearly all the others.
wide_rule_lists = st.lists(
    rule_strategy.filter(lambda r: len(r.head) + len(r.pbody) + len(r.nbody)
                         + len(r.nnbody) >= 2),
    min_size=65, max_size=120, unique=True).flatmap(
    lambda distinct: st.lists(st.sampled_from(distinct), max_size=40).flatmap(
        lambda copies: st.permutations(distinct + copies)))


@given(wide_rule_lists)
@settings(max_examples=25, deadline=None)
def test_minimal_rules_agrees_with_pairwise_oracle_on_wide_sets(rules):
    kept = _minimal_rules(rules)
    assert len(kept) == len(set(kept))
    assert set(kept) == oracles.naive_minimal_rules(rules)


def test_minimal_rules_chain_keeps_only_its_bottom():
    # the middle rule is subsumed and also subsumes the top one; only the
    # bottom survives, whatever order the rules come in
    chain = [parse_rule("a :- b."), parse_rule("a :- b, c."),
             parse_rule("a | d :- b, c, not e.")]
    for rules in permutations(chain):
        assert _minimal_rules(rules) == chain[:1]


def test_minimal_rules_edge_cases(prog):
    # the empty rule subsumes every other rule, constraints included
    rules = prog(":-. a. :- b. a :- not b, not not c.").rules
    assert _minimal_rules(rules) == [parse_rule(":-.")]
    # rules of one size never subsume each other, however they overlap
    rules = prog("a :- b. a :- c. b :- a. :- a, b. a | b. "
                 "a :- not b. a :- not not b.").rules
    assert set(_minimal_rules(rules)) == rules
    assert _minimal_rules([]) == []


def test_already_normal_program_is_fixed(prog):
    p = prog("t :- q. v :- not q. q :- s. q :- w.")
    assert normal_form(p) == p
    assert is_normal_form(p)


def test_step_order_tautology_before_simplification(prog):
    # a tautological rule is removed whole, not first repaired
    assert normal_form(prog("a :- a, not not a.")) == Program()


def test_steps_cascade_into_subsumption(prog):
    # body simplification makes the first rule subsume the second
    p = prog("a :- b, not not b. a :- b, c.")
    assert normal_form(p) == prog("a :- b.")


def test_signature_preserved_through_normalization(prog):
    p = prog("p :- p. a :- b.")
    assert normal_form(p).signature == {"p", "a", "b"}


@given(program_strategy)
@settings(max_examples=60, deadline=None)
def test_idempotent_and_well_formed(p):
    n = normal_form(p)
    assert is_normal_form(n)
    assert normal_form(n) == n


@given(program_strategy)
@settings(max_examples=60, deadline=None)
def test_meaning_preserved(p):
    assert strongly_equivalent(p, normal_form(p))


def test_meaning_preserved_on_corpus(small_corpus):
    for p in small_corpus:
        n = normal_form(p)
        assert is_normal_form(n)
        assert strongly_equivalent(p, n)
