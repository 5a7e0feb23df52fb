"""Corpus generation, context enumeration, persistence checking."""

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from aspforget.core import Program, rule
from aspforget.forget import forget
from aspforget.harness import (GOLDEN_PROGRAMS, CorpusSpec, SPFailure,
                               SPReport, _context_index, enumerate_contexts,
                               generate_corpus, verify_sp)
from aspforget.ht_semantics import (SignatureLimitError, answer_sets,
                                    answer_sets_from_pairs, ht_models)
from aspforget.parser_io import format_program, parse_program
from aspforget.semantic import satisfies_omega

from . import oracles
from .conftest import programs


def fs(*atoms):
    return frozenset(atoms)


# ---------------------------------------------------------------------------
# corpus


def test_corpus_deterministic():
    spec = CorpusSpec(seed=3, count=30)
    assert generate_corpus(spec) == generate_corpus(spec)


def test_corpus_seed_matters():
    a = generate_corpus(CorpusSpec(seed=1, count=30))
    b = generate_corpus(CorpusSpec(seed=2, count=30))
    assert a != b


def test_corpus_count_zero_is_goldens_only():
    corpus = generate_corpus(CorpusSpec(count=0))
    assert corpus == [GOLDEN_PROGRAMS[k] for k in sorted(GOLDEN_PROGRAMS)]


def test_corpus_goldens_lead():
    corpus = generate_corpus(CorpusSpec(count=10))
    assert corpus[:len(GOLDEN_PROGRAMS)] \
        == [GOLDEN_PROGRAMS[k] for k in sorted(GOLDEN_PROGRAMS)]


def test_corpus_generated_part_obeys_caps():
    spec = CorpusSpec(count=200)
    corpus = generate_corpus(spec)
    for p in corpus[-spec.count:]:
        assert 1 <= len(p) <= 5
        assert len(p.signature) <= 4
        for r in p:
            assert len(r.pbody) + len(r.nbody) + len(r.nnbody) <= 3


@pytest.mark.parametrize("seed, count, digest", [
    (1, 2000, "e2bc7b607f28d5fa1dab3413d5b82abceda38d9c"),
    (0, 25, "f6f8c78a106dd993bd7bd76213725036ac3b99b6"),
])
def test_corpus_texts_are_frozen(seed, count, digest):
    # the benchmark's corpus and persistence inputs (seed 1, 2000
    # programs) and the verify-sp default corpus (seed 0, 25 programs):
    # a change to the generator must not shift them
    texts = "\n".join(map(format_program,
                           generate_corpus(CorpusSpec(seed=seed,
                                                      count=count))))
    assert hashlib.sha1(texts.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# contexts


def test_contexts_depth0_are_fact_subsets():
    ctxs = enumerate_contexts({"c"}, 0)
    assert len(ctxs) == 2
    ctxs = enumerate_contexts({"a", "b"}, 0)
    assert len(ctxs) == 4
    assert Program() in ctxs
    assert Program([rule(["a"]), rule(["b"])]) in ctxs


def test_contexts_depth1_adds_single_rules():
    ctxs = enumerate_contexts({"c"}, 1)
    # 2 fact subsets, then 2 heads x (empty, c, not c, c+not c) bodies
    assert len(ctxs) == 10
    assert Program([rule(["c"], [], ["c"])]) in ctxs
    assert Program([rule([], ["c"])]) in ctxs


def test_contexts_depth2_adds_rule_pairs():
    ctxs = enumerate_contexts({"c"}, 2)
    assert len(ctxs) == 10 + 8 * 7 // 2


def test_contexts_for_mixed_cycle_cover_witness(golden):
    sigma = golden["self_cycle_mixed"].signature - {"q"}
    ctxs = enumerate_contexts(sigma, 1)
    assert Program([rule(["t"])]) in ctxs
    assert Program([rule(["u"]), rule(["s"])]) in ctxs


def test_contexts_guard_and_depth():
    with pytest.raises(SignatureLimitError):
        enumerate_contexts({f"x{i}" for i in range(7)}, 0)
    assert enumerate_contexts({f"x{i}" for i in range(7)}, 0, limit=8)
    with pytest.raises(ValueError):
        enumerate_contexts({"a"}, 3)


# ---------------------------------------------------------------------------
# persistence checking


def test_verify_sp_equality_mode(golden):
    report = verify_sp(golden["chain_pos"], "q")
    assert isinstance(report, SPReport)
    assert report.ok and not report.omega
    assert report.failures == ()
    universe = golden["chain_pos"].signature
    assert report.contexts_checked == len(enumerate_contexts(
        universe - {"q"}, 1))


def test_verify_sp_pure_self_cycle(golden):
    assert verify_sp(golden["self_cycle_pos"], "q").ok


def test_verify_sp_superset_mode(golden):
    p = golden["self_cycle_mixed"]
    report = verify_sp(p, "q", depth=0)
    assert report.ok and report.omega


def test_mixed_cycle_gains_an_answer_set(golden):
    # under the empty context the forgotten program keeps the projected
    # answer sets and acquires {s, t, u} on top
    p = golden["self_cycle_mixed"]
    projected = {s - {"q"} for s in answer_sets(p)}
    gained = answer_sets(forget(p, "q"))
    assert projected == {fs("u", "s"), fs("t")}
    assert gained == projected | {fs("s", "t", "u")}


def test_verify_sp_flags_wrong_result(golden):
    p = golden["chain_pos"]
    report = verify_sp(p, "q", result=Program())
    assert not report.ok
    empty_ctx = [f for f in report.failures if f.context == Program()]
    assert empty_ctx
    f = empty_ctx[0]
    assert f.expected == {fs("v")}
    assert f.actual == {fs()}


def test_verify_sp_accepts_explicit_result(golden):
    p = golden["chain_pos"]
    report = verify_sp(p, "q", result=forget(p, "q"))
    assert report.ok


def per_context_report(p, q, depth, result):
    """The report of verify_sp, built context by context from each union's
    own HT-models over p's signature widened by q."""
    universe = p.signature | {q}
    omega = satisfies_omega(p, {q})[0]
    contexts = enumerate_contexts(universe - {q}, depth)
    failures = []
    for ctx in contexts:
        expected = frozenset(s - {q} for s in answer_sets_from_pairs(
            ht_models(Program(p.rules | ctx.rules), universe)))
        actual = answer_sets_from_pairs(
            ht_models(Program(result.rules | ctx.rules), universe))
        if not (expected <= actual if omega else expected == actual):
            failures.append(SPFailure(ctx, expected, actual))
    return SPReport(p, q, omega, len(contexts), tuple(failures))


def test_verify_sp_depth2_matches_fresh_context_models(golden):
    # depth-2 pairs are read from the depth-1 index; the report must equal
    # one built from each context's own models, for the real result and
    # for a wrong one that fails under many contexts
    p = golden["positive_link"]
    for result in (forget(p, "q"), Program()):
        want = per_context_report(p, "q", 2, result)
        assert verify_sp(p, "q", depth=2, result=result) == want
    assert want.contexts_checked == 4 + 33 + 33 * 32 // 2
    assert want.failures


@settings(max_examples=30, deadline=None)
@given(programs, st.sampled_from((0, 1, 2)), st.integers(-1, 3))
@example(GOLDEN_PROGRAMS["self_cycle_mixed"], 1, -1)
@example(GOLDEN_PROGRAMS["self_cycle_mixed"], 2, 0)
def test_verify_sp_matches_per_context_reference(p, depth, drop):
    # failures, their order and their projected answer sets, in both
    # modes, for forget's result and for a wrong one: the result short of
    # one rule, or the empty program
    p = p.widen({"q"})
    f = forget(p, "q")
    rules = sorted(f.rules, key=str)
    wrong = (Program(f.rules - {rules[drop % len(rules)]})
             if rules and drop >= 0 else Program())
    for result in (f, wrong):
        assert verify_sp(p, "q", depth=depth, result=result) \
            == per_context_report(p, "q", depth, result)


def test_verify_sp_depth2_context_count(golden):
    report = verify_sp(golden["disjunctive_mixed"], "q", depth=2)
    assert report.ok and report.contexts_checked == 56648


@pytest.mark.parametrize("depth", [-1, 3, 7])
def test_verify_sp_rejects_other_depths(depth):
    with pytest.raises(ValueError, match="depth must be 0, 1 or 2"):
        verify_sp(parse_program("a :- q. q :- b."), "q", depth=depth)


def test_verify_sp_omega_failures_report_projected_answer_sets(golden):
    # with the obstruction present only inclusion is required; the empty
    # result still fails it, and each failure must carry the answer sets
    # of the original (q removed) and of the result under that context
    p = golden["self_cycle_mixed"]
    universe = p.signature
    report = verify_sp(p, "q", result=Program())
    assert report.omega and len(report.failures) == 94
    for f in report.failures:
        want = oracles.stable_models(p.rules | f.context.rules, universe)
        assert f.expected == {s - {"q"} for s in want}
        assert f.actual == oracles.stable_models(f.context.rules, universe)
        assert not f.expected <= f.actual


def test_verify_sp_signature_guard():
    big = Program([rule([f"x{i}"]) for i in range(7)])
    with pytest.raises(SignatureLimitError):
        verify_sp(big, "x0")
    assert verify_sp(big, "x0", depth=0, limit=8).ok


def test_verify_sp_passes_its_limit_to_the_contexts(monkeypatch):
    # seven context atoms exceed the default context limit of 6; an
    # explicit limit, or else the environment variable, must cover the
    # context enumeration too
    p = parse_program("x0. x1. x2. x3. x4. x5. x6. q :- x0.")
    with pytest.raises(SignatureLimitError):
        verify_sp(p, "q", depth=0)
    report = verify_sp(p, "q", depth=0, limit=9)
    assert report.ok and report.contexts_checked == 2 ** 7
    monkeypatch.setenv("ASPFORGET_SIGNATURE_LIMIT", "9")
    report = verify_sp(p, "q", depth=0)
    assert report.ok and report.contexts_checked == 2 ** 7
    # an explicit limit still comes first
    with pytest.raises(SignatureLimitError):
        verify_sp(p, "q", depth=0, limit=6)


def test_verify_sp_guards_are_the_only_caps(monkeypatch):
    # the models over p's signature widened by q apply no cap of their
    # own: neither the environment variable below an explicit limit ...
    monkeypatch.setenv("ASPFORGET_SIGNATURE_LIMIT", "3")
    p = parse_program("a :- b, not c. q :- a.")
    report = verify_sp(p, "q", depth=0, limit=5)
    assert report.ok and report.contexts_checked == 2 ** 3
    # ... nor the context limit, which six atoms without q just meet
    monkeypatch.delenv("ASPFORGET_SIGNATURE_LIMIT")
    p = parse_program("a :- b, not c. d :- e, not f.")
    report = verify_sp(p, "q", depth=0)
    assert report.ok and report.contexts_checked == 2 ** 6


def test_verify_sp_shares_one_context_table_across_limits():
    # the table of one signature and depth does not depend on the limit
    p = parse_program("a :- b, not c. q :- a.")
    _context_index.cache_clear()
    for limit in (6, 7, None):
        assert verify_sp(p, "q", limit=limit).ok
    assert _context_index.cache_info().currsize == 1


def test_verify_sp_omega_matches_criterion(small_corpus):
    # verify_sp reads the criterion over the signature widened by q; when q
    # is outside the program that must agree with the plain signature
    for p in small_corpus:
        for prog in (p, p.widen({"q"})):
            assert verify_sp(prog, "q", depth=0).omega \
                == satisfies_omega(prog, {"q"})[0], prog
