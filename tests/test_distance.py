"""Rule and program distance: exact values, the oracle, witness validity."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspforget.core import Program, rule
from aspforget.distance import program_distance, rule_distance, rule_size
from aspforget.forget import forget
from aspforget.parser_io import parse_program, parse_rule
from aspforget.semantic import f_sem

from . import oracles
from .conftest import rules as rule_strategy, stress_family


@pytest.mark.parametrize("text,size", [
    ("a.", 1),
    (":-.", 0),
    ("a :- b.", 2),
    (":- b.", 1),
    ("u :- r, not s, not not u.", 4),
    ("a | b :- c, not d, not not e.", 5),
])
def test_rule_size(text, size):
    assert rule_size(parse_rule(text)) == size


@pytest.mark.parametrize("left,right,d", [
    ("a :- b.", "a :- b.", 0),
    ("a :- b.", "a :- b, c.", 1),
    ("a :- b.", "a :- not b.", 2),
    ("a :- b.", "a :- not not b.", 2),
    ("a :- b.", "a | c :- not b.", 3),
    ("v :- not q.", "v :- not s, not r.", 3),
    ("q | u :- r.", "t | u :- r.", 2),
    (":- b.", "a :- b.", 1),
    ("a.", "b.", 2),
])
def test_rule_distance(left, right, d):
    r1, r2 = parse_rule(left), parse_rule(right)
    assert rule_distance(r1, r2) == d
    assert rule_distance(r2, r1) == d


def test_rule_distance_bounded_by_sizes():
    r1 = parse_rule("a | b :- c, not d.")
    r2 = parse_rule("e :- not not f.")
    assert rule_distance(r1, r2) == rule_size(r1) + rule_size(r2)


# ---------------------------------------------------------------------------
# program distance


def test_worked_example(golden):
    d, _ = program_distance(golden["distance_left"], golden["distance_right"])
    assert d == 3


def test_distance_to_self_is_zero(golden):
    # the size-0 rule :-. shares nothing with itself yet stays matched
    for p in [*golden.values(), parse_program(":-. a :- b.")]:
        d, matching = program_distance(p, p)
        assert d == 0
        assert len(matching) == len(p)


def test_distance_symmetry(golden):
    names = ("chain_pos", "disjunctive_mixed", "distance_left", "fact_blocker")
    for a, b in itertools.combinations(names, 2):
        d_ab, _ = program_distance(golden[a], golden[b])
        d_ba, _ = program_distance(golden[b], golden[a])
        assert d_ab == d_ba


def test_distance_empty_program(golden):
    p = golden["disjunctive_mixed"]
    total = sum(rule_size(r) for r in p)
    for left, right in ((p, Program()), (Program(), p)):
        d, matching = program_distance(left, right)
        assert d == total
        assert matching == ()


def test_distance_upper_bound(golden):
    # leaving everything unmatched is always available
    for a in golden.values():
        for b in golden.values():
            bound = sum(rule_size(r) for r in a) \
                + sum(rule_size(r) for r in b)
            assert program_distance(a, b)[0] <= bound


def test_crossing_beats_natural_alignment(golden):
    # matching rules by shared head atoms gives 16 here; the optimum
    # pairs t :- q. with t | u :- r. instead and saves two units
    p = golden["disjunctive_mixed"]
    d, _ = program_distance(p, forget(p, "q"))
    assert d == 14


def test_distance_to_counter_model_program(golden):
    p = golden["disjunctive_mixed"]
    d, _ = program_distance(p, f_sem(p, {"q"}))
    assert d == 501


def test_witness_cost_matches_reported(golden, small_corpus):
    pairs = list(zip(small_corpus[:20], small_corpus[20:40]))
    stress = stress_family(3)
    pairs += [(golden["disjunctive_mixed"],
               forget(golden["disjunctive_mixed"], "q")),
              (stress, forget(stress, "q"))]
    for p1, p2 in pairs:
        assert_witness_costs(p1, p2, *program_distance(p1, p2))


def assert_witness_costs(p1, p2, d, matching):
    matched1 = {m[0] for m in matching}
    matched2 = {m[1] for m in matching}
    assert len(matched1) == len(matching) == len(matched2)
    assert matched1 <= p1.rules and matched2 <= p2.rules
    cost = sum(rule_distance(r1, r2) for r1, r2 in matching)
    cost += sum(rule_size(r) for r in p1.rules - matched1)
    cost += sum(rule_size(r) for r in p2.rules - matched2)
    assert cost == d


def test_distance_allocates_no_padded_matrix():
    # 10 x 1202 rules: the overlap lists take 0.1 MB, while an
    # (n1 + n2)^2 padded matrix and its float copy take 24 MB
    p = stress_family(4)
    result = forget(p, "q")
    tracemalloc.start()
    try:
        program_distance(p, result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_agrees_with_exhaustive_oracle(small_corpus):
    pairs = list(zip(small_corpus[:25], small_corpus[25:50]))
    for p1, p2 in pairs:
        d, _ = program_distance(p1, p2)
        assert d == oracles.naive_program_distance(p1, p2)


@pytest.mark.parametrize("words", [2, 3])
def test_agrees_with_exhaustive_oracle_on_multi_word_masks(words):
    # masks are plain ints; these span more than one 64-bit machine word.
    # The second program keeps most elements of the first, so the rules
    # share elements in every word.  Ten pairs with an element index of
    # exactly ``words`` words are checked.
    rng = random.Random(words)
    atoms = [f"x{i}" for i in range(60)]

    def wide_program():
        return Program(rule(*(rng.sample(atoms, rng.randint(2, 6 * words))
                              for _ in range(4)))
                       for _ in range(3))

    def perturbed(p):
        return Program(rule(*(rng.sample(sorted(part), len(part) - 1)
                              + [rng.choice(atoms)]
                              for part in (r.head, r.pbody, r.nbody, r.nnbody)))
                       for r in p.rules)

    checked = 0
    while checked < 10:
        p1 = wide_program()
        p2 = perturbed(p1)
        elements = {(tag, a) for r in p1.rules | p2.rules
                    for tag, part in enumerate((r.head, r.pbody, r.nbody,
                                                r.nnbody))
                    for a in part}
        if -(-len(elements) // 64) != words:
            continue
        d, matching = program_distance(p1, p2)
        assert d == oracles.naive_program_distance(p1, p2)
        assert_witness_costs(p1, p2, d, matching)
        checked += 1


@given(st.frozensets(rule_strategy, max_size=3),
       st.frozensets(rule_strategy, max_size=3))
@settings(max_examples=60, deadline=None)
def test_agrees_with_exhaustive_oracle_random(rs1, rs2):
    p1, p2 = Program(rs1), Program(rs2)
    d, _ = program_distance(p1, p2)
    assert d == oracles.naive_program_distance(p1, p2)
    for r1, r2 in itertools.product(rs1, rs2):
        assert rule_distance(r1, r2) == oracles.naive_rule_distance(r1, r2)


@given(st.lists(rule_strategy, min_size=1, max_size=9, unique=True),
       st.data())
@settings(max_examples=200, deadline=None)
def test_agrees_with_exhaustive_oracle_on_shared_rules(pool, data):
    # both programs come from one pool, so identical rules and tied
    # overlaps are common: the pre-matching and the cut to each row's
    # largest overlaps both act
    few, many = (Program(data.draw(st.frozensets(st.sampled_from(pool),
                                                 max_size=size)))
                 for size in (3, 7))
    expected = oracles.naive_program_distance(few, many)
    for p1, p2 in ((few, many), (many, few)):
        d, matching = program_distance(p1, p2)
        assert d == expected
        assert_witness_costs(p1, p2, d, matching)


def test_single_rule_programs():
    p1 = Program([rule(["a"], ["b"])])
    p2 = Program([rule(["a"], [], ["b"])])
    assert program_distance(p1, p2)[0] == 2
