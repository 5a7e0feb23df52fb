"""The syntactic forgetting operator and its derivation machinery."""

import sys

import pytest
from hypothesis import given, settings

from aspforget import normalform
from aspforget.core import Program, Rule
from aspforget.forget import (Partition, TraceEntry, forget, forget_fast,
                              forget_iterated, forget_with_trace,
                              is_q_forgettable, partition)
from aspforget.harness import CorpusSpec, generate_corpus
from aspforget.ht_semantics import answer_sets, ht_models, strongly_equivalent
from aspforget.normalform import is_normal_form, normal_form
from aspforget.parser_io import parse_program, parse_rule
from aspforget.semantic import fsp_target_models, satisfies_omega

from .conftest import programs as program_strategy, stress_family

QA = frozenset({"q", "a"})
TAGS = {"plain", "1a", "2a", "3a", "1b", "2b", "3b", "4", "5", "6", "7"}


def rules_of(text):
    return parse_program(text).rules


# ---------------------------------------------------------------------------
# partition


def test_partition_positive_chain(golden):
    part = partition(golden["chain_pos"], "q")
    assert part.plain == frozenset()
    assert part.r0 == rules_of("t :- q.")
    assert part.r1 == rules_of("v :- not q.")
    assert part.r2 == part.r3 == frozenset()
    assert part.r4 == rules_of("q :- s. q :- w.")


def test_partition_self_cycle(golden):
    part = partition(golden["self_cycle_pos"], "q")
    assert part.r0 == rules_of("a :- q.")
    assert part.r3 == rules_of("q :- not not q.")
    assert part.plain == part.r1 == part.r2 == part.r4 == frozenset()


def test_partition_untouched_program(prog):
    part = partition(prog("a :- b."), "q")
    assert part.plain == rules_of("a :- b.")
    assert part.r0 == part.r1 == part.r2 == part.r3 == part.r4 == frozenset()


def test_partition_covers_and_separates(golden):
    for p in golden.values():
        pn = normal_form(p)
        part = partition(pn, "q")
        buckets = [part.plain, part.r0, part.r1, part.r2, part.r3, part.r4]
        union = frozenset().union(*buckets)
        assert union == pn.rules
        assert sum(map(len, buckets)) == len(pn.rules)


def test_partition_rejects_unnormalized(prog):
    with pytest.raises(ValueError):
        partition(prog("a :- q, not not q."), "q")


# ---------------------------------------------------------------------------
# forget: exact results


def test_forget_positive_chain(golden, prog):
    assert forget(golden["chain_pos"], "q") \
        == prog("t :- s. t :- w. v :- not s, not w.")


def test_forget_disjunctive_producer(golden, prog):
    assert forget(golden["disjunctive_producer"], "q") == prog("""
        v :- not s, not w.      v :- not t, not w.
        v :- not s, not not u.  v :- not t, not not u.
        u :- w, not s, not not u.
        u :- w, not t, not not u.
    """)


def test_forget_self_cycle_pos(golden, prog):
    assert forget(golden["self_cycle_pos"], "q") == prog("a :- not not a.")


def test_forget_self_cycle_mixed(golden, prog):
    assert forget(golden["self_cycle_mixed"], "q") == prog("""
        u :- not t.  s :- not t.  t :- not u.  t :- not s.
        u :- not not u, not not s.
        s :- not not s, not not u.
        t :- not not t.
    """)


def test_forget_disjunctive_mixed(golden, prog):
    assert forget(golden["disjunctive_mixed"], "q") == prog("""
        t :- s.  t | u :- r.
        u :- r, not s, not not u.
        v :- not s, not not u.
        v :- not s, not r.
    """)


def test_forget_without_occurrence_is_normal_form(prog):
    assert forget(prog("a :- b."), "q") == prog("a :- b.")
    assert forget(prog("a :- b. a :- b, c."), "q") == prog("a :- b.")


def test_forget_expected_rewrite_of_positive_link(golden, prog):
    # the q-mediated dependency of p on not c must survive
    assert forget(golden["positive_link"], "q") == prog("p :- not c.")


def test_forget_blocked_negation_leaves_constraint(prog):
    # nothing can ever block q here, so the body can never fire
    assert forget(prog(":- not q."), "q") == prog(":-.")
    assert forget(prog("q. v :- not q."), "q") == Program()


def test_forget_signature_drops_atom(golden):
    for name, p in golden.items():
        result = forget(p, "q")
        assert "q" not in result.signature
        assert result.signature == p.signature - {"q"}


def test_forget_output_is_normal(golden):
    for p in golden.values():
        assert is_normal_form(forget(p, "q"))


# ---------------------------------------------------------------------------
# trace


def test_trace_tags_and_sources(golden):
    result, trace = forget_with_trace(golden["chain_pos"], "q")
    assert result == forget(golden["chain_pos"], "q")
    assert trace
    for entry in trace:
        assert entry.tag in TAGS
        assert all(src in normal_form(golden["chain_pos"]).rules
                   for src in entry.sources)
    # every surviving rule is derivable
    derived = {e.rule for e in trace}
    assert result.rules <= derived


def test_trace_entry_is_an_immutable_value(golden):
    _, trace = forget_with_trace(golden["chain_pos"], "q")
    entry = trace[0]
    assert (entry.tag, entry.rule, entry.sources) == tuple(entry)
    assert isinstance(entry.rule, Rule) and all(
        isinstance(s, Rule) for s in entry.sources)
    with pytest.raises(AttributeError):
        entry.tag = "1a"
    assert TraceEntry(*entry) == entry


def test_emitted_rules_share_their_atom_sets():
    # one object per distinct atom set, in the trace and in the result
    result, trace = forget_with_trace(stress_family(4), "q")
    for rules in ([e.rule for e in trace], result.rules):
        sets = [s for r in rules for s in r]
        assert len({id(s) for s in sets}) == len(set(sets))


def test_trace_side_condition_prunes_family_4(golden):
    # blockers overlapping the negated q-free body are skipped outright
    _, trace = forget_with_trace(golden["disjunctive_producer"], "q")
    spurious = parse_rule("u :- w, not s, not w.")
    assert spurious not in {e.rule for e in trace}


def test_plain_rules_keep_their_identity(prog):
    p = prog("a :- b. t :- q. q :- s.")
    _, trace = forget_with_trace(p, "q")
    plain = [e for e in trace if e.tag == "plain"]
    assert [e.rule for e in plain] == [parse_rule("a :- b.")]


def test_consumer_never_blocks_itself():
    # 3a combines a consumer with blockers of the *other* consumers only, so
    # on the stress family no raw rule is dropped by the final normal form
    for k, rules, family_3a in ((3, 303, 12), (5, 4671, 80), (6, 17766, 192)):
        result, trace = forget_with_trace(stress_family(k), "q")
        assert len(trace) == rules
        assert sum(e.tag == "3a" for e in trace) == family_3a
        assert len(result) == rules


def test_trace_follows_blocker_order():
    # within a family, rules come in the order of their blocker sets,
    # each compared as its literals sorted by (depth, atom)
    _, trace = forget_with_trace(stress_family(2), "q")
    assert [str(e.rule) for e in trace if e.tag == "3a"] == [
        "t0 :- d0, e, not d1, not not t0.",
        "t0 :- d0, e, not not t0, not not t1.",
        "t1 :- d1, e, not d0, not not t1.",
        "t1 :- d1, e, not not t0, not not t1.",
    ]
    assert [str(e.rule) for e in trace
            if e.tag == "4" and "v" in e.rule.head] == [
        "v :- not b0, not b1, not e.",
        "v :- not b0, not e, not not c1.",
        "v :- not b0, not e, not not u1.",
        "v :- not b1, not e, not not c0.",
        "v :- not b1, not e, not not u0.",
        "v :- not e, not not c0, not not c1.",
        "v :- not e, not not c0, not not u1.",
        "v :- not e, not not c1, not not u0.",
        "v :- not e, not not u0, not not u1.",
    ]


# ---------------------------------------------------------------------------
# q-forgettable and the fast path


def test_forgettable_examples(golden, prog):
    assert is_q_forgettable(golden["chain_pos"], "q")
    assert is_q_forgettable(golden["disjunctive_producer"], "q")
    assert not is_q_forgettable(golden["self_cycle_pos"], "q")
    assert is_q_forgettable(prog("q :- not not q."), "q")


def test_forgettable_via_fact(prog):
    # a fact for q neutralizes otherwise-hard self-cycles
    assert is_q_forgettable(prog("q. q :- not not q. a :- q."), "q")


def test_fast_path_matches_full_operator(golden, small_corpus):
    checked = 0
    for p in list(golden.values()) + small_corpus:
        for q in ("q", "a"):
            if is_q_forgettable(p, q):
                assert forget_fast(p, q) == forget(p, q)
                checked += 1
    assert checked > 200


def test_fast_path_rejects_hard_instance(golden):
    with pytest.raises(ValueError):
        forget_fast(golden["self_cycle_pos"], "q")


def test_fast_path_fact_only(prog):
    assert forget_fast(prog("q. a :- b."), "q") == prog("a :- b.")


# ---------------------------------------------------------------------------
# semantic properties


def test_oracle_equivalence_on_goldens(golden):
    for p in golden.values():
        want = fsp_target_models(p, {"q"})
        got = ht_models(forget(p, "q"), want.sigma)
        assert got.members == want.members, p


@given(program_strategy)
@settings(max_examples=60, deadline=None)
def test_oracle_equivalence_random(p):
    want = fsp_target_models(p, {"q"})
    got = ht_models(forget(p, "q"), want.sigma)
    assert got.members == want.members


@given(program_strategy)
@settings(max_examples=40, deadline=None)
def test_q_freeness_random(p):
    result = forget(p, "q")
    assert "q" not in result.signature
    assert is_normal_form(result)


def test_forget_minimizes_twice(golden, monkeypatch):
    # once for the input's normal form and once for the result's; nothing
    # downstream re-checks or recomputes the normal form
    calls = []
    minimal_rules = normalform._minimal_rules

    def counting(rules):
        calls.append(1)
        return minimal_rules(rules)

    monkeypatch.setattr(normalform, "_minimal_rules", counting)
    forget(golden["disjunctive_mixed"], "q")
    assert len(calls) == 2
    # the fast path reads the class from the same normal form
    calls.clear()
    forget_fast(golden["disjunctive_mixed"], "q")
    assert len(calls) == 2


@pytest.mark.parametrize("k,calls", [(3, 8), (5, 12)])
def test_forget_computes_blockers_once_per_rule_set(monkeypatch, k, calls):
    # the derivation families ask for the blockers of the same rule sets
    # again and again; each distinct set reaches as_dual once
    # (the package's ``forget`` attribute is the function, not the module)
    forget_module = sys.modules[forget.__module__]
    seen = []
    as_dual = forget_module.as_dual

    def counting(q, rules):
        seen.append(frozenset(rules))
        return as_dual(q, rules)

    monkeypatch.setattr(forget_module, "as_dual", counting)
    forget(stress_family(k), "q")
    assert len(seen) == len(set(seen)) == calls


def test_equivalence_preserved_by_forgetting(prog):
    p1 = prog("t :- q, not not q. q :- s.")
    p2 = prog("t :- q. q :- s.")
    assert strongly_equivalent(p1, p2)
    assert strongly_equivalent(forget(p1, "q"), forget(p2, "q"))


def test_syntactic_invariance_for_disjoint_context(golden, prog):
    # q-free rules ride along untouched when they interact with nothing
    r = prog("zz :- yy.")
    p = golden["chain_pos"]
    combined = forget(Program(p.rules | r.rules), "q")
    assert combined == Program(forget(p, "q").rules | r.rules)


def test_strong_invariance_up_to_equivalence(golden, prog):
    # an interacting context still agrees semantically
    r = prog("t :- s.")
    p = golden["chain_pos"]
    left = forget(Program(p.rules | r.rules), "q")
    right = Program(forget(p, "q").rules | r.rules)
    assert strongly_equivalent(left, right)


def test_answer_set_projection_preserved(golden):
    # with no context at all, forgetting keeps the q-free answer sets
    for name in ("chain_pos", "disjunctive_producer", "linked_chain"):
        p = golden[name]
        want = {s - {"q"} for s in answer_sets(p)}
        got = answer_sets(forget(p, "q"))
        assert got == want


def test_iterated_forgetting(prog):
    p = prog("t :- q. q :- s. s :- w.")
    result = forget_iterated(p, ["q", "s"])
    assert result == prog("t :- w.")
    assert forget_iterated(p, []) == p


def test_iterated_forgetting_meets_set_target_when_unobstructed():
    # forgetting q then a must give the target models of forgetting {q, a}
    # at once whenever neither the set nor either step is obstructed
    checked = 0
    for p in generate_corpus(CorpusSpec(seed=1, count=2000)):
        p = p.widen(QA)
        if (satisfies_omega(p, QA)[0] or satisfies_omega(p, {"q"})[0]
                or satisfies_omega(forget(p, "q"), {"a"})[0]):
            continue
        want = fsp_target_models(p, QA)
        got = ht_models(forget_iterated(p, ["q", "a"]), want.sigma)
        assert got.rows == want.rows, p
        checked += 1
    assert checked == 2011


def test_iterated_forgetting_obstructed_step_misses_set_target(prog):
    # the one program of that corpus where the set is not obstructed but
    # the first step is: the iterated result has other models than the
    # set-level target
    p = prog("a :- q. b :- not q, not not a. "
             "q :- not b, not not a, not not q. q :- not not a, not not q. "
             "q :- q, not not b, not not c.")
    assert not satisfies_omega(p, QA)[0]
    assert satisfies_omega(p, {"q"})[0]
    assert not satisfies_omega(forget(p, "q"), {"a"})[0]
    want = fsp_target_models(p, QA)
    assert ht_models(forget_iterated(p, ["q", "a"]), want.sigma).rows \
        != want.rows


def test_iterated_order_can_matter_but_stays_q_free(prog):
    p = prog("a :- q, not s. q :- s.")
    for order in (["q", "s"], ["s", "q"]):
        out = forget_iterated(p, order)
        assert not ({"q", "s"} & out.signature)
