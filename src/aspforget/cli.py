"""Command line front end.

One executable, one subcommand per library operation.  Programs are read
from file paths or ``-`` for standard input.  Boolean checks report
through the exit code (0 = yes, 1 = no) so they compose in shell
scripts; ``--quiet`` drops the human-readable echo.  Parse problems exit
with 2, enumeration-guard violations with 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .core import Program, check_atom, rule_key
from .distance import program_distance
from .forget import _forget, forget_iterated, is_q_forgettable
from .harness import CorpusSpec, generate_corpus, verify_sp
from .ht_semantics import (SignatureLimitError, answer_sets_from_pairs,
                           equivalent, ht_models, strongly_equivalent)
from .normalform import normal_form
from .parser_io import ParseError, format_program, parse_program
from .semantic import f_sem, satisfies_omega


def _read_program(path: str) -> Program:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SystemExit(f"aspforget: cannot read {path}: {exc.strerror}")
    try:
        return parse_program(text)
    except ParseError as exc:
        name = "<stdin>" if path == "-" else path
        exc.source = name
        raise


def _atom_list(text: str) -> List[str]:
    atoms = [check_atom(a.strip()) for a in text.split(",") if a.strip()]
    if not atoms:
        raise ValueError("empty atom list")
    return atoms


def _fmt_set(atoms) -> str:
    return "{" + ",".join(sorted(atoms)) + "}"


def _print_json(payload) -> None:
    print(json.dumps(payload, separators=(",", ":"), sort_keys=True))


def _by_size(sets) -> List[List[str]]:
    """Atom sets as sorted lists, ordered by size and then by atoms."""
    return sorted((sorted(a) for a in sets), key=lambda a: (len(a), a))


def _emit_program(p: Program, args) -> None:
    if args.json:
        _print_json({"signature": sorted(p.signature),
                     "rules": [str(r) for r in p]})
    else:
        sys.stdout.write(format_program(p))


def _verdict(flag: bool, yes: str, no: str, args) -> int:
    if not args.quiet:
        print(yes if flag else no)
    return 0 if flag else 1


def _cmd_normalize(args) -> int:
    _emit_program(normal_form(_read_program(args.program)), args)
    return 0


def _cmd_forget(args) -> int:
    p = _read_program(args.program)
    atoms = _atom_list(args.atoms if args.atoms else args.atom)
    if len(atoms) > 1:
        if args.fast or args.trace:
            raise ValueError("--fast/--trace apply to single-atom forgetting")
        print("warning: iterated forgetting; persistence guarantees hold "
              "per step, not for the set", file=sys.stderr)
        result = forget_iterated(p, atoms)
        trace = ()
    else:
        result, trace = _forget(p, atoms[0], fast=args.fast)
    if args.trace:
        for entry in sorted(trace, key=lambda e: (e.tag, rule_key(e.rule))):
            srcs = "; ".join(str(s) for s in entry.sources)
            print(f"% {entry.tag}: {entry.rule}" + (f"  <=  {srcs}" if srcs else ""))
    _emit_program(result, args)
    if args.check_oracle:
        from .semantic import fsp_target_models
        want = fsp_target_models(p, set(atoms), limit=args.limit)
        got = ht_models(result, want.sigma, limit=args.limit)
        if got.members != want.members:
            print("oracle: MISMATCH between result models and target models",
                  file=sys.stderr)
            return 1
        print("oracle: ok", file=sys.stderr)
    return 0


def _cmd_models(args) -> int:
    p = _read_program(args.program)
    if args.signature:
        p = p.widen(_atom_list(args.signature))
    want_ht = args.ht or not args.answer
    want_as = args.answer or not args.ht
    pairs = ht_models(p, limit=args.limit)
    ans = answer_sets_from_pairs(pairs.members) if want_as else frozenset()
    if args.json:
        payload = {"signature": sorted(pairs.sigma)}
        if want_ht:
            payload["ht_models"] = sorted([sorted(m.x), sorted(m.y)]
                                          for m in pairs.members)
        if want_as:
            payload["answer_sets"] = _by_size(ans)
        _print_json(payload)
        return 0
    print(f"signature: {_fmt_set(pairs.sigma)}")
    if want_ht:
        print("ht-models:")
        for x, y in sorted(pairs.members,
                           key=lambda m: (len(m[1]), sorted(m[1]),
                                          len(m[0]), sorted(m[0]))):
            print(f"  <{_fmt_set(x)},{_fmt_set(y)}>")
    if want_as:
        print("answer-sets:")
        for a in _by_size(ans):
            print(f"  {_fmt_set(a)}")
    return 0


def _cmd_equiv(args) -> int:
    p1 = _read_program(args.left)
    p2 = _read_program(args.right)
    extra = _atom_list(args.signature) if args.signature else ()
    if args.weak:
        eq = equivalent(p1, p2, limit=args.limit)
        return _verdict(eq, "equivalent (same answer sets)",
                        "not equivalent", args)
    eq = strongly_equivalent(p1, p2, sigma=extra, limit=args.limit)
    return _verdict(eq, "strongly equivalent", "not strongly equivalent", args)


def _cmd_omega(args) -> int:
    p = _read_program(args.program)
    if args.signature:
        p = p.widen(_atom_list(args.signature))
    v = set(_atom_list(args.atoms))
    verdict, report = satisfies_omega(p, v, limit=args.limit)
    if args.json:
        _print_json({
            "satisfies": verdict,
            "witness": sorted(report.witness) if report.witness is not None
                       else None,
            "candidates": [
                {
                    "y": sorted(c.y),
                    "rel": _by_size(c.rel),
                    "has_least": c.has_least,
                }
                for c in report.candidates
            ],
        })
        return 0 if verdict else 1
    if verdict:
        return _verdict(True, f"obstructed: forgetting {_fmt_set(v)} cannot "
                        f"preserve persistence (witness Y={_fmt_set(report.witness)})",
                        "", args)
    return _verdict(False, "", f"not obstructed: {_fmt_set(v)} can be "
                    "forgotten with persistence", args)


def _cmd_qforgettable(args) -> int:
    p = _read_program(args.program)
    q = check_atom(args.atom)
    return _verdict(is_q_forgettable(p, q),
                    f"{q}-forgettable", f"not {q}-forgettable", args)


def _cmd_distance(args) -> int:
    p1 = _read_program(args.left)
    p2 = _read_program(args.right)
    value, matching = program_distance(p1, p2)
    if args.json:
        _print_json({"distance": value,
                     "matching": [[str(a), str(b)] for a, b in matching]})
        return 0
    print(value)
    if args.witness:
        for a, b in matching:
            print(f"  {a}  ~  {b}")
    return 0


def _cmd_fsem(args) -> int:
    p = _read_program(args.program)
    v = set(_atom_list(args.atoms))
    result = f_sem(p, v, limit=args.limit)
    if args.normalize:
        result = normal_form(result)
    _emit_program(result, args)
    return 0


def _cmd_verify_sp(args) -> int:
    if args.program:
        programs = [_read_program(args.program)]
    else:
        spec = CorpusSpec(seed=args.seed, count=args.count)
        programs = generate_corpus(spec)
    q = check_atom(args.atom)
    reports = [verify_sp(p, q, depth=args.depth, limit=args.limit)
               for p in programs]
    ok = all(r.ok for r in reports)
    if args.json:
        _print_json([
            {
                "program": [str(r) for r in rep.program],
                "atom": rep.atom,
                "obstructed": rep.omega,
                "contexts": rep.contexts_checked,
                "failures": [
                    {
                        "context": [str(r) for r in f.context],
                        "expected": sorted(sorted(a) for a in f.expected),
                        "actual": sorted(sorted(a) for a in f.actual),
                    }
                    for f in rep.failures
                ],
            }
            for rep in reports
        ])
        return 0 if ok else 1
    checked = sum(r.contexts_checked for r in reports)
    bad = sum(len(r.failures) for r in reports)
    if not args.quiet:
        print(f"instances: {len(reports)}  contexts: {checked}  "
              f"failures: {bad}")
        for rep in reports:
            for f in rep.failures:
                ctx = " ".join(str(r) for r in f.context) or "(empty)"
                print(f"  FAIL under {ctx}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="aspforget",
        description="Forget atoms from extended logic programs while "
                    "preserving answer sets under any added rules.")
    top.add_argument("--limit", type=int, default=None, metavar="N",
                     help="raise the signature-size guard (exponential cost)")
    top.add_argument("--quiet", action="store_true",
                     help="suppress text for boolean verdicts")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_, **kw):
        sp = sub.add_parser(name, help=help_, description=help_, **kw)
        sp.set_defaults(func=func)
        return sp

    sp = add("normalize", _cmd_normalize,
             "drop tautologies, simplify bodies, remove subsumed rules")
    sp.add_argument("program", help="program file or -")
    sp.add_argument("--json", action="store_true")

    sp = add("forget", _cmd_forget, "forget an atom syntactically")
    sp.add_argument("program", help="program file or -")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--atom", metavar="Q", help="atom to forget")
    g.add_argument("--atoms", metavar="Q1,Q2,..",
                   help="forget several atoms left to right")
    sp.add_argument("--fast", action="store_true",
                    help="refuse programs outside the q-forgettable class "
                         "(exit 2); the result is that of plain forget")
    sp.add_argument("--trace", action="store_true",
                    help="print per-rule derivation provenance as comments")
    sp.add_argument("--check-oracle", action="store_true",
                    help="verify the result against the semantic target")
    sp.add_argument("--json", action="store_true")

    sp = add("models", _cmd_models, "enumerate HT-models and answer sets")
    sp.add_argument("program", help="program file or -")
    sp.add_argument("--signature", metavar="A,B,..",
                    help="widen the signature before enumeration")
    sp.add_argument("--ht", action="store_true", help="HT-models only")
    sp.add_argument("--as", dest="answer", action="store_true",
                    help="answer sets only")
    sp.add_argument("--json", action="store_true")

    sp = add("equiv", _cmd_equiv, "decide strong equivalence of two programs")
    sp.add_argument("left", help="program file or -")
    sp.add_argument("right", help="program file or -")
    sp.add_argument("--weak", action="store_true",
                    help="same answer sets only")
    sp.add_argument("--signature", metavar="A,B,..",
                    help="extra atoms for the comparison signature")

    sp = add("omega", _cmd_omega,
             "decide whether persistence-preserving forgetting is impossible")
    sp.add_argument("program", help="program file or -")
    sp.add_argument("--atoms", metavar="Q1,Q2,..", required=True,
                    help="atoms to forget")
    sp.add_argument("--signature", metavar="A,B,..",
                    help="widen the signature first")
    sp.add_argument("--json", action="store_true")

    sp = add("qforgettable", _cmd_qforgettable,
             "check the linear-time forgettable class")
    sp.add_argument("program", help="program file or -")
    sp.add_argument("--atom", metavar="Q", required=True)

    sp = add("distance", _cmd_distance,
             "minimal literal-edit distance between two programs")
    sp.add_argument("left", help="program file or -")
    sp.add_argument("right", help="program file or -")
    sp.add_argument("--witness", action="store_true",
                    help="also print the optimal rule pairing")
    sp.add_argument("--json", action="store_true")

    sp = add("fsem", _cmd_fsem,
             "counter-model construction realizing the semantic target")
    sp.add_argument("program", help="program file or -")
    sp.add_argument("--atoms", metavar="Q1,Q2,..", required=True)
    sp.add_argument("--normalize", action="store_true",
                    help="post-process with the normal form (off by default)")
    sp.add_argument("--json", action="store_true")

    sp = add("verify-sp", _cmd_verify_sp,
             "test persistence under enumerated rule contexts")
    sp.add_argument("program", nargs="?", default=None,
                    help="program file or - (omit to run a generated corpus)")
    sp.add_argument("--atom", metavar="Q", required=True)
    sp.add_argument("--depth", type=int, default=1, choices=(0, 1, 2))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=25,
                    help="random corpus size when no file is given")
    sp.add_argument("--json", action="store_true")

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe; point stdout at devnull so the flush
        # at exit cannot fail again (Python docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        source = getattr(exc, "source", "<input>")
        print(f"aspforget: {source}:{exc}", file=sys.stderr)
        if exc.snippet:
            print(f"  {exc.snippet}", file=sys.stderr)
        return 2
    except SignatureLimitError as exc:
        print(f"aspforget: {exc} (use --limit to accept the cost)",
              file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"aspforget: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if exc.code and not isinstance(exc.code, int):
            print(exc.code, file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
