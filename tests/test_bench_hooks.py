"""The library names the benchmark's tracer wraps still exist, and the
benchmark's own checks accept the library's outputs.

``bench/spans.py`` replaces each function of its ``TRACED`` table by a
timing wrapper and counts an ``ht_models`` span's work from the result's
``members``; a trimmed API would otherwise break traced runs silently.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import aspforget
from aspforget.ht_semantics import ht_models
from aspforget.parser_io import parse_program

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for module, func in load_bench("spans").TRACED:
        assert callable(getattr(importlib.import_module(f"aspforget.{module}"),
                                func)), (module, func)


def test_ht_models_span_counts_the_pairs():
    # a :- not b has the classical models {a}, {b} and {a,b}: 2 + 2 + 3 pairs
    models = ht_models(parse_program("a :- not b."))
    assert len(models.members) == 7
    spans = load_bench("spans")
    assert spans._count("ht_semantics.ht_models", (), models) == 7


def test_persistence_checks_pass(monkeypatch):
    # the goldens and a few seed-0 programs through the persistence
    # workload's timed step and its checks, oracle rechecks included
    pytest.importorskip("numpy")  # bench/checks.py needs it
    # workloads.py imports its sibling as ``checks``, as under bench/run.py
    monkeypatch.setitem(sys.modules, "checks", load_bench("checks"))
    workloads = load_bench("workloads")
    api = SimpleNamespace(**{name: getattr(aspforget, name) for name in (
        "CorpusSpec", "Rule", "generate_corpus", "parse_program",
        "format_program", "forget", "satisfies_omega", "f_sem",
        "program_distance", "verify_sp")})
    persistence = workloads.Persistence(api, seed=0)
    items = persistence.prepare()[:20]
    persistence.recheck = set(range(len(items)))
    for i, item in enumerate(items):
        out = persistence.step(item)
        assert persistence.check(i, item, out) == [], item[0]
