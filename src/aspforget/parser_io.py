"""Concrete syntax: parsing and canonical printing.

Grammar (``%`` starts a comment reaching the end of the line)::

    atom    = [a-z][A-Za-z0-9_]*          # "not" is reserved
    literal = atom | "not" atom | "not" "not" atom
    head    = atom ("|" atom)* | <empty>
    body    = literal ("," literal)*
    rule    = head "." | head ":-" body "." | ":-" body "."

The degenerate rule with empty head and empty body is written ``:-.`` and
is accepted back; it arises from forgetting and denotes the always-violated
constraint.  Canonical printing sorts head atoms alphabetically, body
literals by kind (positive, ``not``, ``not not``) and then alphabetically,
and whole rules by their printed form, one per line, so that printing is
injective on programs and ``parse(print(P)) == P``.  JSON output belongs
to the command line front end.

The blanks between tokens are space, tab, CR and LF; any other character
outside a comment, such as a no-break space, a form feed or a vertical tab,
is rejected.  Every token is checked before the grammar is read, so a bad
token is reported before any grammar error.  Error positions count only
``\\n`` as a line break.
"""

from __future__ import annotations

import re
from typing import List

from .core import ATOM_RE, Program, Rule, rule_text


class ParseError(Exception):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, column: int, snippet: str = ""):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.snippet = snippet


# A comment, or one token: ``:-``, a run of word characters, or any other
# character that is not a blank.
_TOKEN = re.compile(r"%[^\n]*|(:-|\w+|[^ \t\r\n])")
_PUNCT = frozenset((":-", ".", ",", "|"))


def _lines(text: str) -> List[str]:
    """Lines as the scanner counts them: only ``\\n`` ends one, a ``\\r``
    before it belongs to the break, and a final break starts no new line."""
    *ended, last = text.split("\n")
    lines = [line.removesuffix("\r") for line in ended]
    if last or not lines:
        lines.append(last)
    return lines


def _error(text: str, index: int, message: str) -> ParseError:
    """The error at token ``index`` of ``text``, or at its end when there
    are only ``index`` tokens; the positions come from a second scan."""
    lines = _lines(text)
    starts = [m.start() for m in _TOKEN.finditer(text) if m.group(1)]
    if index == len(starts):
        return ParseError(message, len(lines), len(lines[-1]) + 1, lines[-1])
    at = starts[index]
    line = text.count("\n", 0, at) + 1
    return ParseError(message, line, at - text.rfind("\n", 0, at),
                      lines[line - 1])


def parse_program(text: str) -> Program:
    """Parse program text; raises ParseError with line/column on bad input."""
    tokens = [t for t in _TOKEN.findall(text) if t]
    bad = {t for t in set(tokens) - _PUNCT if not ATOM_RE.match(t)}
    if bad:
        # a word that does not start with a letter or "_" is no name at all:
        # its first character is the unexpected one
        i, t = next((i, t) for i, t in enumerate(tokens) if t in bad)
        raise _error(text, i, f"invalid atom name {t!r}"
                     if t[0].isalpha() or t[0] == "_"
                     else f"unexpected character {t[0]!r}")
    # States: "rule" at the start of a rule, "head" after "|", "head_end"
    # after a head atom, "body" after ":-", "lit" after "not", "body_end"
    # after a body atom.  ``depth`` counts the "not"s of the literal read.
    rules: List[Rule] = []
    head, body, depth, state = [], (set(), set(), set()), 0, "rule"
    for i, tok in enumerate(tokens):
        if tok == "." and state not in ("head", "lit"):
            rules.append(Rule(frozenset(head), *map(frozenset, body)))
            head, body, state = [], (set(), set(), set()), "rule"
        elif state == "rule" and tok in _PUNCT:
            if tok != ":-":
                raise _error(text, i, "expected a rule")
            state = "body"
        elif state in ("rule", "head"):
            if tok in _PUNCT:
                raise _error(text, i, "expected an atom")
            if tok == "not":
                raise _error(text, i,
                             "'not' is reserved and cannot be an atom name")
            head.append(tok)
            state = "head_end"
        elif state == "head_end" and tok in ("|", ":-"):
            state = "head" if tok == "|" else "body"
        elif state == "body_end" and tok == ",":
            state = "lit"
        elif state in ("head_end", "body_end"):
            raise _error(text, i, "expected '.'")
        elif tok in _PUNCT:
            raise _error(text, i, "expected an atom")
        elif tok == "not":
            if depth == 2:
                raise _error(text, i, "'not not not a' is not accepted; "
                             "it collapses to 'not a', so write that")
            depth += 1
            state = "lit"
        else:
            body[depth].add(tok)
            depth, state = 0, "body_end"
    if state != "rule":
        raise _error(text, len(tokens), "expected an atom"
                     if state in ("head", "lit") else "expected '.'")
    return Program(rules)


def parse_rule(text: str) -> Rule:
    """Parse a single rule (convenience for tests and the REPL)."""
    program = parse_program(text)
    if len(program) != 1:
        raise ValueError(f"expected exactly one rule, got {len(program)}")
    return next(iter(program))


def format_rule(r: Rule) -> str:
    """Canonical single-line rendering of one rule."""
    return str(r)


def format_program(p: Program) -> str:
    """Canonical rendering: sorted rules, one per line, trailing newline.

    The empty program renders as the empty string.  Each distinct atom
    set is rendered once per call, in its place in the rule (head, P, N
    or NN), by the renderer of ``str(rule)``.
    """
    memo = ({}, {}, {}, {})
    lines = sorted(rule_text(r, memo) for r in p.rules)
    return "".join(line + "\n" for line in lines)
