"""Span tracing at the boundaries between the library's modules.

``Tracer.install`` replaces each traced public function by a wrapper at
every name that refers to it: in the module that defines it, in each
module that imports it from another, and in the benchmark's ``api``
namespace.  A wrapper appends one span (name, start, end, parent, count)
to an in-memory list; nothing is written until the pass ends.  Self time
is a span's duration minus the durations of its direct children.

``aspforget.forget`` names the function, not the module, so modules are
looked up in ``sys.modules``.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Dict, List

FAMILIES = ("plain", "1a", "1b", "2a", "2b", "3a", "3b", "4", "5", "6", "7")

# Every per-layer metric a pass reports; a layer the workload never calls
# reads 0.
LAYER_METRICS = (
    "parser_io.parse_ms", "parser_io.format_ms",
    "normalform.input_ms", "normalform.final_ms", "normalform.rules_in",
    "normalform.rules_kept",
    "asdual.calls", "asdual.sets", "asdual.ms",
    "forget.derive_ms", "forget.raw_rules", "forget.raw_distinct",
    *(f"forget.family.{tag}" for tag in FAMILIES),
    "ht_semantics.ht_models_ms", "ht_semantics.ht_models_calls",
    "ht_semantics.pairs", "ht_semantics.answer_sets_ms",
    "semantic.omega_ms", "semantic.target_ms", "semantic.fsem_ms",
    "semantic.fsem_rules",
    "distance.ms",
    "harness.verify_ms", "harness.contexts_checked",
    "harness.context_ht_calls",
)

# (defining module, function) -> span name
TRACED = {
    ("parser_io", "parse_program"): "parser_io.parse",
    ("parser_io", "format_program"): "parser_io.format",
    ("normalform", "normal_form"): "normalform.normal_form",
    ("asdual", "as_dual"): "asdual.as_dual",
    ("forget", "forget"): "forget.forget",
    ("forget", "forget_with_trace"): "forget.forget_with_trace",
    ("ht_semantics", "ht_models"): "ht_semantics.ht_models",
    ("ht_semantics", "answer_sets_from_pairs"): "ht_semantics.answer_sets",
    ("semantic", "satisfies_omega"): "semantic.omega",
    ("semantic", "fsp_target_models"): "semantic.target",
    ("semantic", "f_sem"): "semantic.fsem",
    ("distance", "program_distance"): "distance.program_distance",
    ("harness", "verify_sp"): "harness.verify_sp",
}


def is_time(metric: str) -> bool:
    return metric.endswith(("_ms", ".ms"))


def _count(name: str, args, result):
    """The work count a span records, by span name."""
    if name == "normalform.normal_form":
        return [len(args[0]), len(result)]
    if name == "asdual.as_dual":
        return len(result)
    if name == "forget.forget_with_trace":
        entries = result[1]
        return [len(entries), len({e.rule for e in entries}),
                dict(Counter(e.tag for e in entries))]
    if name == "ht_semantics.ht_models":
        return len(result.members)
    if name == "semantic.fsem":
        return len(result)
    if name == "harness.verify_sp":
        return result.contexts_checked
    return None


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.verify_inputs = ()
        self.context_calls = 0
        self.distance_calls: List[tuple] = []
        self.record_distance = False

    def reset(self, record_distance: bool) -> None:
        self.spans.clear()
        self.stack.clear()
        self.context_calls = 0
        self.distance_calls.clear()
        self.record_distance = record_distance

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if name == "harness.verify_sp":
                self.verify_inputs = (id(args[0]), id(kwargs.get("result")))
            elif (name == "ht_semantics.ht_models" and self.verify_inputs
                  and id(args[0]) not in self.verify_inputs):
                self.context_calls += 1
            elif name == "distance.program_distance" and self.record_distance:
                self.distance_calls.append(args)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if name == "harness.verify_sp":
                    self.verify_inputs = ()
            span[4] = _count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, api) -> None:
        """Wrap every name of each traced function, in every loaded module
        of the package and in ``api``."""
        modules = [m for n, m in sys.modules.items()
                   if n == "aspforget" or n.startswith("aspforget.")]
        for (module, func), name in TRACED.items():
            original = getattr(sys.modules[f"aspforget.{module}"], func)
            wrapper = self.wrap(name, original)
            for owner in modules + [api]:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)

    def distance_alloc_peak_mb(self) -> float:
        """Re-run the recorded distance calls under tracemalloc and return
        the largest peak of one call, in MB."""
        fn = sys.modules["aspforget.distance"].program_distance.__wrapped__
        self.record_distance = False
        peak = 0
        for args in self.distance_calls:
            tracemalloc.start()
            try:
                fn(*args)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        self.distance_calls.clear()
        return peak / 2 ** 20

    def dump(self, path, pass_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(json.dumps([pass_index, i, parent, name, start, end,
                                     count], separators=(",", ":")) + "\n")

    def layers(self) -> Dict[str, float]:
        """Per-layer totals of one pass; times in ms."""
        spans = self.spans
        child_ns = [0] * len(spans)
        children = defaultdict(list)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                children[parent].append(i)
        self_ms = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            self_ms[name] += (end - start - child_ns[i]) / 1e6
            calls[name] += 1

        out = {key: 0.0 if is_time(key) else 0 for key in LAYER_METRICS}
        families = Counter()
        for i, (name, start, end, parent, count) in enumerate(spans):
            if name == "forget.forget_with_trace":
                nf = [c for c in children[i]
                      if spans[c][0] == "normalform.normal_form"]
                nf_ns = sum(spans[c][2] - spans[c][1] for c in nf)
                out["forget.derive_ms"] += (end - start - nf_ns) / 1e6
                out["forget.raw_rules"] += count[0]
                out["forget.raw_distinct"] += count[1]
                families.update(count[2])
                for c in nf[:-1]:
                    out["normalform.input_ms"] += \
                        (spans[c][2] - spans[c][1]) / 1e6
                if nf:
                    final = spans[nf[-1]]
                    out["normalform.final_ms"] += (final[2] - final[1]) / 1e6
                    out["normalform.rules_in"] += final[4][0]
                    out["normalform.rules_kept"] += final[4][1]
            elif name == "normalform.normal_form" and (
                    parent < 0 or spans[parent][0] != "forget.forget_with_trace"):
                out["normalform.input_ms"] += (end - start) / 1e6
            elif name == "asdual.as_dual":
                out["asdual.sets"] += count
            elif name == "ht_semantics.ht_models":
                out["ht_semantics.pairs"] += count
            elif name == "semantic.fsem":
                out["semantic.fsem_rules"] += count
            elif name == "harness.verify_sp":
                out["harness.contexts_checked"] += count
        for tag in FAMILIES:
            out[f"forget.family.{tag}"] = families[tag]
        out["parser_io.parse_ms"] = self_ms["parser_io.parse"]
        out["parser_io.format_ms"] = self_ms["parser_io.format"]
        out["asdual.calls"] = calls["asdual.as_dual"]
        out["asdual.ms"] = self_ms["asdual.as_dual"]
        out["ht_semantics.ht_models_ms"] = self_ms["ht_semantics.ht_models"]
        out["ht_semantics.ht_models_calls"] = calls["ht_semantics.ht_models"]
        out["ht_semantics.answer_sets_ms"] = self_ms["ht_semantics.answer_sets"]
        out["semantic.omega_ms"] = self_ms["semantic.omega"]
        out["semantic.target_ms"] = self_ms["semantic.target"]
        out["semantic.fsem_ms"] = self_ms["semantic.fsem"]
        out["distance.ms"] = self_ms["distance.program_distance"]
        out["harness.verify_ms"] = self_ms["harness.verify_sp"]
        out["harness.context_ht_calls"] = self.context_calls
        return out
