"""Command line front end.

One executable, one subcommand per library operation.  Programs are read
from file paths or ``-`` for standard input, which may be given once.
:func:`main` reads every program argument before the subcommand runs and
widens it by ``--signature``; each subcommand then computes and prints
through :func:`_emit` (JSON under ``--json``, text otherwise).  Boolean
checks report through the exit code (0 = yes, 1 = no) so they compose in
shell scripts; ``--quiet`` drops the human-readable echo.  Parse problems
exit with 2, enumeration-guard violations with 3.
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
from .semantic import f_sem, fsp_target_models, satisfies_omega


def _read_program(path: str) -> Program:
    source = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            # decode the bytes, if any, so bad input is refused, not escaped
            text = getattr(sys.stdin, "buffer", sys.stdin).read()
            if isinstance(text, bytes):
                text = text.decode("utf-8")
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {source}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {source}: {exc}")
    try:
        return parse_program(text)
    except ParseError as exc:
        exc.source = source
        raise


def _atom_list(text: str) -> List[str]:
    """The atoms of a comma-separated list, each once, in order."""
    atoms = list(dict.fromkeys(
        check_atom(a.strip()) for a in text.split(",") if a.strip()))
    if not atoms:
        raise ValueError("empty atom list")
    return atoms


def _fmt_set(atoms) -> str:
    return "{" + ",".join(sorted(atoms)) + "}"


def _by_size(sets) -> List[List[str]]:
    """Atom sets as sorted lists, ordered by size and then by atoms."""
    return sorted((sorted(a) for a in sets), key=lambda a: (len(a), a))


def _emit(args, payload, text) -> None:
    """Print ``payload()`` as one JSON line under ``--json``, else write the
    strings of ``text()``.  Only the form asked for is built: a model
    listing can be huge.  Payloads are trees that may share leaf lists,
    never cycles, so the encoder skips its cycle check."""
    if args.json:
        print(json.dumps(payload(), separators=(",", ":"), sort_keys=True,
                         check_circular=False))
    else:
        sys.stdout.writelines(text())


def _emit_program(args, p: Program, trace=None) -> None:
    """Print ``p``, after the ``trace`` entries if given."""
    def payload():
        extra = {} if trace is None else {"trace": [
            {"tag": e.tag, "rule": str(e.rule),
             "sources": [str(s) for s in e.sources]} for e in trace]}
        return {"signature": sorted(p.signature),
                "rules": [str(r) for r in p], **extra}
    _emit(args, payload, lambda: [
        f"% {e.tag}: {e.rule}  <=  {'; '.join(map(str, e.sources))}\n"
        for e in trace or ()] + [format_program(p)])


def _verdict(args, flag: bool, yes: str, no: str) -> int:
    """Exit 0 for yes, 1 for no; say which unless ``--quiet`` or ``--json``."""
    if not (args.quiet or getattr(args, "json", False)):
        print(yes if flag else no)
    return 0 if flag else 1


def _cmd_normalize(args) -> int:
    _emit_program(args, normal_form(args.program))
    return 0


def _cmd_forget(args) -> int:
    p = args.program
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
    _emit_program(args, result, sorted(
        trace, key=lambda e: (e.tag, rule_key(e.rule))) if args.trace else None)
    if args.check_oracle:
        want = fsp_target_models(p, set(atoms), limit=args.limit)
        got = ht_models(result, want.sigma, limit=args.limit)
        if got.rows != want.rows:
            print("oracle: MISMATCH between result models and target models",
                  file=sys.stderr)
            return 1
        print("oracle: ok", file=sys.stderr)
    return 0


def _cmd_models(args) -> int:
    want_ht = args.ht or not args.answer
    want_as = args.answer or not args.ht
    models = ht_models(args.program, limit=args.limit)
    ans = _by_size(answer_sets_from_pairs(models)) if want_as else []

    def payload():
        out = {"signature": sorted(models.sigma)}
        if want_ht:
            out["ht_models"] = models.pairs_by_atoms()
        if want_as:
            out["answer_sets"] = ans
        return out

    def text():
        yield f"signature: {_fmt_set(models.sigma)}\n"
        if want_ht:
            yield "ht-models:\n"
            labels = {}
            for x, y in models.ordered_pairs():
                for w in (x, y):
                    if w not in labels:
                        labels[w] = _fmt_set(w)
                yield f"  <{labels[x]},{labels[y]}>\n"
        if want_as:
            yield "answer-sets:\n"
            for a in ans:
                yield f"  {_fmt_set(a)}\n"

    _emit(args, payload, text)
    return 0


def _cmd_equiv(args) -> int:
    extra = _atom_list(args.extra) if args.extra else ()
    if args.weak:
        eq = equivalent(args.left, args.right, limit=args.limit)
        return _verdict(args, eq, "equivalent (same answer sets)",
                        "not equivalent")
    eq = strongly_equivalent(args.left, args.right, sigma=extra,
                             limit=args.limit)
    return _verdict(args, eq, "strongly equivalent", "not strongly equivalent")


def _cmd_omega(args) -> int:
    v = set(_atom_list(args.atoms))
    verdict, report = satisfies_omega(args.program, v, limit=args.limit)
    _emit(args, lambda: {
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
    }, lambda: ())
    return _verdict(args, verdict,
                    f"obstructed: forgetting {_fmt_set(v)} cannot preserve "
                    f"persistence (witness Y={_fmt_set(report.witness or ())})",
                    f"not obstructed: {_fmt_set(v)} can be forgotten with "
                    "persistence")


def _cmd_qforgettable(args) -> int:
    q = check_atom(args.atom)
    return _verdict(args, is_q_forgettable(args.program, q),
                    f"{q}-forgettable", f"not {q}-forgettable")


def _cmd_distance(args) -> int:
    value, matching = program_distance(args.left, args.right)
    witness = matching if args.witness else ()
    _emit(args, lambda: {"distance": value,
                         "matching": [[str(a), str(b)] for a, b in matching]},
          lambda: [f"{value}\n", *(f"  {a}  ~  {b}\n" for a, b in witness)])
    return 0


def _cmd_fsem(args) -> int:
    result = f_sem(args.program, set(_atom_list(args.atoms)), limit=args.limit)
    if args.normalize:
        result = normal_form(result)
    _emit_program(args, result)
    return 0


def _cmd_verify_sp(args) -> int:
    if args.program is not None:
        programs = [args.program]
    else:
        spec = CorpusSpec(seed=args.seed, count=args.count)
        programs = generate_corpus(spec)
    q = check_atom(args.atom)
    reports = [verify_sp(p, q, depth=args.depth, limit=args.limit)
               for p in programs]
    bad = [f for r in reports for f in r.failures]
    lines = [f"instances: {len(reports)}  "
             f"contexts: {sum(r.contexts_checked for r in reports)}  "
             f"failures: {len(bad)}"]
    lines += ("  FAIL under "
              + (" ".join(str(r) for r in f.context) or "(empty)")
              for f in bad)
    _emit(args, lambda: [
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
    ], lambda: () if args.quiet else (line + "\n" for line in lines))
    return 0 if all(r.ok for r in reports) else 1


def _non_negative(text: str) -> int:
    """An argparse type: a count or limit, which may not be negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="aspforget",
        description="Forget atoms from extended logic programs while "
                    "preserving answer sets under any added rules.")
    top.add_argument("--limit", type=_non_negative, default=None, metavar="N",
                     help="raise the signature-size guard (exponential cost)")
    top.add_argument("--quiet", action="store_true",
                     help="suppress text for boolean verdicts")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")
    program = argparse.ArgumentParser(add_help=False)
    program.add_argument("program", help="program file or -")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("left", help="program file or -")
    pair.add_argument("right", help="program file or -")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true",
                         help="print one line of JSON instead of text")

    def add(name, func, help_, *parents):
        sp = sub.add_parser(name, help=help_, description=help_,
                            parents=parents)
        sp.set_defaults(func=func)
        return sp

    add("normalize", _cmd_normalize,
        "drop tautologies, simplify bodies, remove subsumed rules",
        program, as_json)

    sp = add("forget", _cmd_forget, "forget an atom syntactically",
             program, as_json)
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

    sp = add("models", _cmd_models, "enumerate HT-models and answer sets",
             program, as_json)
    sp.add_argument("--signature", metavar="A,B,..",
                    help="widen the signature before enumeration")
    sp.add_argument("--ht", action="store_true", help="HT-models only")
    sp.add_argument("--as", dest="answer", action="store_true",
                    help="answer sets only")

    sp = add("equiv", _cmd_equiv, "decide strong equivalence of two programs",
             pair)
    sp.add_argument("--weak", action="store_true",
                    help="same answer sets only")
    sp.add_argument("--signature", dest="extra", metavar="A,B,..",
                    help="extra atoms for the comparison signature")

    sp = add("omega", _cmd_omega,
             "decide whether persistence-preserving forgetting is impossible",
             program, as_json)
    sp.add_argument("--atoms", metavar="Q1,Q2,..", required=True,
                    help="atoms to forget")
    sp.add_argument("--signature", metavar="A,B,..",
                    help="widen the signature first")

    sp = add("qforgettable", _cmd_qforgettable,
             "check the linear-time forgettable class", program)
    sp.add_argument("--atom", metavar="Q", required=True)

    sp = add("distance", _cmd_distance,
             "minimal literal-edit distance between two programs",
             pair, as_json)
    sp.add_argument("--witness", action="store_true",
                    help="also print the optimal rule pairing")

    sp = add("fsem", _cmd_fsem,
             "counter-model construction realizing the semantic target",
             program, as_json)
    sp.add_argument("--atoms", metavar="Q1,Q2,..", required=True)
    sp.add_argument("--normalize", action="store_true",
                    help="post-process with the normal form (off by default)")

    sp = add("verify-sp", _cmd_verify_sp,
             "test persistence under enumerated rule contexts", as_json)
    sp.add_argument("program", nargs="?", default=None,
                    help="program file or - (omit to run a generated corpus)")
    sp.add_argument("--atom", metavar="Q", required=True)
    sp.add_argument("--depth", type=int, default=1, choices=(0, 1, 2))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=_non_negative, default=25,
                    help="random corpus size when no file is given")

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        paths = {name: getattr(args, name)
                 for name in ("program", "left", "right")
                 if getattr(args, name, None) is not None}
        if list(paths.values()).count("-") > 1:
            raise ValueError("standard input (-) can be read only once")
        for name, path in paths.items():
            setattr(args, name, _read_program(path))
        if getattr(args, "signature", None):
            args.program = args.program.widen(_atom_list(args.signature))
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe; point stdout at devnull so the flush
        # at exit cannot fail again (Python docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"aspforget: {exc.source}:{exc}", file=sys.stderr)
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


if __name__ == "__main__":
    sys.exit(main())
