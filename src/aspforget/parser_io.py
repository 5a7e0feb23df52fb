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
injective on programs and ``parse(print(P)) == P``.  Error positions count
lines as the scanner does.  JSON output belongs to the command line front end.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from .core import ATOM_RE, Program, Rule


class ParseError(Exception):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, column: int, snippet: str = ""):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.snippet = snippet


def _tokenize(text: str) -> List[Tuple[str, str, int, int]]:
    """Yield (kind, value, line, column) tokens; kind is 'atom' or 'punct'."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "%":
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith(":-", i):
            tokens.append(("punct", ":-", line, col))
            i += 2
            col += 2
        elif c in ".,|":
            tokens.append(("punct", c, line, col))
            i += 1
            col += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if not ATOM_RE.match(word):
                raise ParseError(f"invalid atom name {word!r}", line, col,
                                 _lines(text)[line - 1])
            tokens.append(("atom", word, line, col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", line, col,
                             _lines(text)[line - 1])
    return tokens


def _lines(text: str) -> List[str]:
    """Lines as the scanner counts them: only ``\\n`` ends one, a ``\\r``
    before it belongs to the break, and a final break starts no new line."""
    *ended, last = text.split("\n")
    lines = [line.removesuffix("\r") for line in ended]
    if last or not lines:
        lines.append(last)
    return lines


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _error(self, message: str, tok=None):
        if tok is None:
            tok = self._peek()
        if tok is None:
            lines = _lines(self.text)
            raise ParseError(message, len(lines), len(lines[-1]) + 1, lines[-1])
        raise ParseError(message, tok[2], tok[3], _lines(self.text)[tok[2] - 1])

    def _take_punct(self, value: str) -> None:
        tok = self._peek()
        if tok is None or tok[0] != "punct" or tok[1] != value:
            self._error(f"expected {value!r}")
        self.pos += 1

    def _take_atom(self) -> str:
        tok = self._peek()
        if tok is None or tok[0] != "atom":
            self._error("expected an atom")
        if tok[1] == "not":
            self._error("'not' is reserved and cannot be an atom name", tok)
        self.pos += 1
        return tok[1]

    def _literal(self, body: Tuple[Set[str], Set[str], Set[str]]) -> None:
        """Read one body literal into P, N or NN by its ``not`` depth."""
        depth = 0
        while self._peek() is not None and self._peek()[:2] == ("atom", "not"):
            if depth == 2:
                self._error("'not not not a' is not accepted; "
                            "it collapses to 'not a', so write that")
            self.pos += 1
            depth += 1
        body[depth].add(self._take_atom())

    def _rule(self) -> Rule:
        head: List[str] = []
        tok = self._peek()
        if tok[0] == "atom":
            head.append(self._take_atom())
            while self._peek() and self._peek()[1] == "|":
                self.pos += 1
                head.append(self._take_atom())
        body = (set(), set(), set())
        tok = self._peek()
        if tok is not None and tok[1] == ":-":
            self.pos += 1
            if self._peek() is not None and self._peek()[1] != ".":
                self._literal(body)
                while self._peek() is not None and self._peek()[1] == ",":
                    self.pos += 1
                    self._literal(body)
        elif not head and (tok is None or tok[1] != "."):
            self._error("expected a rule")
        self._take_punct(".")
        return Rule(frozenset(head), *map(frozenset, body))

    def program(self) -> Program:
        rules = []
        while self._peek() is not None:
            rules.append(self._rule())
        return Program(rules)


def parse_program(text: str) -> Program:
    """Parse program text; raises ParseError with line/column on bad input."""
    return _Parser(text).program()


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

    The empty program renders as the empty string.
    """
    lines = sorted(format_rule(r) for r in p.rules)
    return "".join(line + "\n" for line in lines)
