"""Benchmark of aspforget: one workload per run, closed loop, one program
after another on a single thread.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass over the workload's inputs runs in a child forked
from the prepared process, so caches filled in one pass never serve the
next.  The first pass also checks every output (``workloads.py``) after
its timed loop; later passes must reproduce its outputs exactly.  Passes
repeat until their timed work reaches ``--seconds``, and there are at
least two.  Set-up time is the median of several fresh
interpreters, each timed from its start to inputs ready.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
sys.path.insert(0, str(BENCH))


def load_api() -> SimpleNamespace:
    """Import the package from the checkout and collect the public
    functions the workloads call."""
    if not (SRC / "aspforget" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import aspforget
    if Path(aspforget.__file__).resolve().parent != SRC / "aspforget":
        raise SystemExit(f"bench: imported {aspforget.__file__}, "
                         f"not the checkout's source")
    from aspforget import (CorpusSpec, Rule, f_sem, format_program,
                           generate_corpus, parse_program, program_distance,
                           satisfies_omega, verify_sp)
    from aspforget import forget
    return SimpleNamespace(
        CorpusSpec=CorpusSpec, Rule=Rule, generate_corpus=generate_corpus,
        parse_program=parse_program, format_program=format_program,
        forget=forget, satisfies_omega=satisfies_omega, f_sem=f_sem,
        program_distance=program_distance, verify_sp=verify_sp)


def prepare(api, name: str, seed: int):
    from workloads import WORKLOADS
    workload = WORKLOADS[name](api, seed)
    return workload, workload.prepare()


def probe_setup(args) -> int:
    """Body of a set-up probe: import, make the inputs, report the time."""
    start = time.perf_counter()
    api = load_api()
    import_ms = (time.perf_counter() - start) * 1e3
    prepare(api, args.workload, args.seed)
    print(json.dumps({"ready": time.perf_counter(), "import_ms": import_ms}))
    return 0


def measure_setup(args):
    """Median set-up seconds and import ms over fresh interpreters."""
    setups, imports = [], []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--probe-setup"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.splitlines()[-1])
        setups.append(probe["ready"] - start)
        imports.append(probe["import_ms"])
    return statistics.median(setups), statistics.median(imports)


def in_child(fn):
    """Run ``fn`` in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        code = 0
        try:
            payload = {"ok": fn()}
        except BaseException:
            payload = {"error": traceback.format_exc()}
            code = 1
        with os.fdopen(write, "w") as fh:
            json.dump(payload, fh)
        sys.stderr.flush()
        os._exit(code)
    os.close(write)
    with os.fdopen(read) as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    payload = json.loads(data) if data else {"error": "child died"}
    if "error" in payload:
        raise RuntimeError(f"pass failed in child:\n{payload['error']}")
    return payload["ok"]


def one_pass(workload, items, index: int, tracer, trace_file) -> dict:
    """Run and time every program once.  The first pass (index 0) keeps
    its outputs and checks them after the timed loop."""
    first = index == 0
    if tracer is not None:
        tracer.reset(record_distance=first)
    clock = time.perf_counter_ns
    times, digests, failed, kept = [], [], [], []
    totals = {}
    for i, item in enumerate(items):
        start = clock()
        try:
            out = workload.step(item)
        except Exception as exc:
            times.append(clock() - start)
            digests.append(None)
            failed.append(i)
            print(f"bench: {workload.name} program {i}: {exc!r}",
                  file=sys.stderr)
            continue
        times.append(clock() - start)
        digests.append(workload.digest(out))
        for key, value in workload.totals(out).items():
            totals[key] = totals.get(key, 0) + value
        if first:
            kept.append((i, item, out))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for i, item, out in kept:
        try:
            problems = workload.check(i, item, out)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        if problems:
            failed.append(i)
            print(f"bench: {workload.name} program {i}: "
                  + "; ".join(problems), file=sys.stderr)
    result = {"times": times, "digests": digests, "failed": failed,
              "totals": totals, "rss_kb": rss_kb}
    if tracer is not None:
        result["layers"] = tracer.layers()
        tracer.dump(trace_file, index)
        if first:
            result["alloc_peak_mb"] = tracer.distance_alloc_peak_mb()
    return result


def quantile(values, level: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(level * len(ordered)) - 1)]


def summarize(workload, n_items, passes, setup_s, import_ms, trace):
    """Pass 0 checked the outputs; every later pass must reproduce them."""
    first = passes[0]
    bad = set(first["failed"])
    failed = len(bad)
    for later in passes[1:]:
        differs = {i for i, (a, b) in
                   enumerate(zip(first["digests"], later["digests"]))
                   if a != b}
        failed += len(bad | differs | set(later["failed"]))
    attempted = n_items * len(passes)
    # Outputs are deterministic, so their totals and the traced counts
    # must repeat exactly from pass to pass.
    correct = all(p["totals"] == first["totals"] for p in passes)
    if trace:
        from spans import is_time
        correct &= all(p["layers"][key] == first["layers"][key]
                       for p in passes for key in first["layers"]
                       if not is_time(key))
    # Each program's time is its median over the passes, which drops the
    # passes run while the machine was briefly faster or slower.
    medians = [statistics.median(times) for times in
               zip(*(p["times"] for p in passes))]
    per_s = n_items / (sum(medians) / 1e9)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    if trace:
        for key, count in first["layers"].items():
            if is_time(key):
                put(key, statistics.median(p["layers"][key] for p in passes),
                    "ms")
            else:
                put(key, count, "count")
        put("distance.alloc_peak_mb", first["alloc_peak_mb"], "MB")
        put("package.import_ms", import_ms, "ms")
        put("trace.programs_per_s", per_s, "1/s")
        return correct, failed, attempted, metrics

    put("setup_s", setup_s, "s")
    put("programs_per_s", per_s, "1/s")
    put("program_p50_ms", statistics.median(medians) / 1e6, "ms")
    # The highest percentile with ten programs beyond it; a workload with
    # too few programs for that reports its slowest program.
    level = 1 - TAIL_BEYOND / n_items if workload.tail else 1
    put("program_tail_ms", quantile(medians, level) / 1e6, "ms")
    # Pass 0 holds its outputs for the checks, so its memory is not the
    # workload's own.
    put("peak_rss_mb", max(p["rss_kb"] for p in passes[1:]) / 1024, "MB")
    put("output_rules", first["totals"]["output_rules"], "count")
    put("result_distance", first["totals"]["result_distance"], "count")
    return correct, failed, attempted, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "stress", "persistence"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        return probe_setup(args)

    api = load_api()
    setup_s, import_ms = measure_setup(args)
    workload, items = prepare(api, args.workload, args.seed)
    tracer = trace_file = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(api)
        RESULTS.mkdir(exist_ok=True)
        trace_file = RESULTS / f"spans-{args.workload}-{args.seed}.jsonl"
        trace_file.write_text("")

    passes, measured_ns = [], 0
    while len(passes) < 2 or measured_ns < args.seconds * 1e9:
        index = len(passes)
        passes.append(in_child(
            lambda: one_pass(workload, items, index, tracer, trace_file)))
        measured_ns += sum(passes[-1]["times"])

    correct, failed, attempted, metrics = summarize(
        workload, len(items), passes, setup_s, import_ms, args.trace)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
