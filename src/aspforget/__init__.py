"""Forgetting atoms from extended logic programs under strong persistence.

The package revolves around :func:`forget`, which removes an atom from a
program with disjunctive heads and single or double default negation while
preserving the program's answer sets, modulo the atom, under every context
that any forgetting operator could serve.  Around it sit the supporting
pieces: here-and-there model enumeration, normal forms, a semantic target
oracle with an obstruction criterion, a counter-model construction, rule
and program distances, and a randomized verification harness.
"""

from .asdual import as_dual
from .core import (Program, Rule, check_atom, is_tautological, rule,
                   rule_size)
from .distance import program_distance, rule_distance
from .forget import (Partition, TraceEntry, forget, forget_fast,
                     forget_iterated, forget_with_trace, is_q_forgettable,
                     partition)
from .harness import (CorpusSpec, GOLDEN_PROGRAMS, SPFailure, SPReport,
                      enumerate_contexts, generate_corpus, verify_sp)
from .ht_semantics import (HTInterpretation, HTModelSet, SignatureLimitError,
                           answer_sets, equivalent, ht_models,
                           strongly_equivalent)
from .normalform import is_normal_form, normal_form
from .parser_io import (ParseError, format_program, format_rule,
                        parse_program, parse_rule)
from .semantic import (OmegaCandidate, OmegaReport, f_sem, fsp_target_models,
                       satisfies_omega)

__version__ = "0.1.0"

__all__ = [
    "CorpusSpec", "GOLDEN_PROGRAMS", "HTInterpretation", "HTModelSet",
    "OmegaCandidate", "OmegaReport", "ParseError", "Partition", "Program",
    "Rule", "SPFailure", "SPReport", "SignatureLimitError", "TraceEntry",
    "answer_sets", "as_dual", "check_atom", "enumerate_contexts",
    "equivalent", "f_sem", "forget", "forget_fast", "forget_iterated",
    "forget_with_trace", "format_program", "format_rule",
    "fsp_target_models", "generate_corpus", "ht_models", "is_normal_form",
    "is_q_forgettable", "is_tautological", "normal_form", "parse_program",
    "parse_rule", "partition", "program_distance", "rule", "rule_distance",
    "rule_size", "satisfies_omega", "strongly_equivalent", "verify_sp",
]
