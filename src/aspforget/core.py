"""Atoms, rules, and programs.

Rules are of the form

    a1 | ... | ak :- b1, ..., bl, not c1, ..., not cm, not not d1, ..., not not dn.

and a :class:`Rule` is its four atom sets: the head H and the body parts P,
N and NN (atoms under zero, one and two ``not``).  The parser, forgetting
and printing all work on these sets, so structural equality ignores order
and duplicates.  ``Rule`` is a named tuple of the four frozensets, so it
is equal to, and hashes like, a plain 4-tuple of the same sets.  ``Rule``
and ``Program`` are immutable and hashable, which lets rule sets and
program collections behave like mathematical sets.  A program carries an
explicit signature that is always a superset of the atoms occurring in
its rules.
"""

from __future__ import annotations

import re
import sys
from typing import (Dict, FrozenSet, Iterable, Iterator, NamedTuple, Optional,
                    Tuple)

ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


def check_atom(name: str) -> str:
    """Validate an atom name and return the interned string.

    Atom names match ``[a-z][A-Za-z0-9_]*``; ``not`` is reserved.
    """
    if name == "not" or not ATOM_RE.match(name):
        raise ValueError(f"invalid atom name: {name!r}")
    return sys.intern(name)


# How each of a rule's four atom sets prints, as the text before its first
# atom and the text between two atoms.
_FORMS = (("", " | "), ("", ", "), ("not ", ", not "),
          ("not not ", ", not not "))


def _set_text(atoms: FrozenSet[str], form: Tuple[str, str]) -> str:
    prefix, joiner = form
    return prefix + joiner.join(sorted(atoms)) if atoms else ""


def _shared_text(atoms: FrozenSet[str], form: Tuple[str, str],
                 known: Dict[FrozenSet[str], str]) -> str:
    text = known.get(atoms)
    if text is None:
        text = known[atoms] = _set_text(atoms, form)
    return text


def rule_text(r: "Rule", memo: Optional[Tuple[Dict, ...]] = None) -> str:
    """The canonical text of ``r``: head atoms alphabetically, then the
    positive, ``not`` and ``not not`` body literals, alphabetically in each.

    ``memo``, if given, holds one dict per part of the rule (head, P, N,
    NN) from an atom set to its text there, so a set shared by many rules
    is sorted and joined once.  The part is part of the key: ``{a,b}``
    prints as ``a | b`` in the head and as ``a, b`` in P.
    """
    if memo is None:
        head, p, n, nn = map(_set_text, r, _FORMS)
    else:
        head, p, n, nn = map(_shared_text, r, _FORMS, memo)
    body = ", ".join(filter(None, (p, n, nn)))
    if head and body:
        return f"{head} :- {body}."
    if head:
        return f"{head}."
    return f":- {body}." if body else ":-."


class Rule(NamedTuple):
    """One rule; head and the three body parts are atom sets."""

    head: FrozenSet[str]
    pbody: FrozenSet[str]
    nbody: FrozenSet[str]
    nnbody: FrozenSet[str]

    @property
    def atoms(self) -> FrozenSet[str]:
        """All atoms occurring in the rule."""
        return self.head | self.pbody | self.nbody | self.nnbody

    @property
    def is_constraint(self) -> bool:
        return not self.head

    __str__ = rule_text


def rule(head: Iterable[str] = (), pbody: Iterable[str] = (),
         nbody: Iterable[str] = (), nnbody: Iterable[str] = ()) -> Rule:
    """Build a rule from atom iterables, validating atom names."""
    return Rule(frozenset(map(check_atom, head)),
                frozenset(map(check_atom, pbody)),
                frozenset(map(check_atom, nbody)),
                frozenset(map(check_atom, nnbody)))


def rule_key(r: Rule) -> Tuple:
    """Deterministic sort key for rules (structural, not textual)."""
    return (sorted(r.head), sorted(r.pbody), sorted(r.nbody), sorted(r.nnbody))


def rule_size(r: Rule) -> int:
    """Head atoms plus body literals."""
    return len(r.head) + len(r.pbody) + len(r.nbody) + len(r.nnbody)


def is_tautological(r: Rule) -> bool:
    """True iff the rule can never act: an atom occurs in the head and the
    positive body, or positively and under ``not``, or under ``not`` and
    ``not not``."""
    return bool(r.head & r.pbody or r.pbody & r.nbody or r.nbody & r.nnbody)


class Program:
    """A duplicate-free rule set with an explicit signature.

    The signature is the union of the atoms occurring in the rules and any
    extra atoms passed in, so it can be widened explicitly but never
    silently narrowed.  Equality and hashing consider the rule set only.
    """

    __slots__ = ("_rules", "_signature")

    def __init__(self, rules: Iterable[Rule] = (),
                 signature: Iterable[str] = ()):
        self._rules = frozenset(rules)
        atoms = set(signature)
        for r in self._rules:
            atoms.update(*r)
        self._signature = frozenset(atoms)

    @property
    def rules(self) -> FrozenSet[Rule]:
        return self._rules

    @property
    def signature(self) -> FrozenSet[str]:
        return self._signature

    def widen(self, atoms: Iterable[str]) -> "Program":
        """The same program over a larger signature."""
        return Program(self._rules, self._signature | frozenset(atoms))

    def __iter__(self) -> Iterator[Rule]:
        return iter(sorted(self._rules, key=rule_key))

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, r: Rule) -> bool:
        return r in self._rules

    def __or__(self, other: "Program") -> "Program":
        return Program(self._rules | other._rules,
                       self._signature | other._signature)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._rules == other._rules

    def __hash__(self) -> int:
        return hash(self._rules)

    def __repr__(self) -> str:
        rules = " ".join(str(r) for r in self)
        return f"<Program {len(self._rules)} rules: {rules}>"

