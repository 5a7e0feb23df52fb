"""The library names the benchmark's tracer wraps still exist.

``bench/spans.py`` replaces each function of its ``TRACED`` table by a
timing wrapper and counts an ``ht_models`` span's work from the result's
``members``; a trimmed API would otherwise break traced runs silently.
"""

import importlib
import importlib.util
from pathlib import Path

from aspforget.ht_semantics import ht_models
from aspforget.parser_io import parse_program

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for module, func in load_spans().TRACED:
        assert callable(getattr(importlib.import_module(f"aspforget.{module}"),
                                func)), (module, func)


def test_ht_models_span_counts_the_pairs():
    # a :- not b has the classical models {a}, {b} and {a,b}: 2 + 2 + 3 pairs
    models = ht_models(parse_program("a :- not b."))
    assert len(models.members) == 7
    assert load_spans()._count("ht_semantics.ht_models", (), models) == 7
