"""Structural layer: atoms, rules, programs, and the package exports."""

import ast
import os
import subprocess
import sys

import pytest
from hypothesis import given

import aspforget
from aspforget.core import (Program, Rule, check_atom, is_tautological, rule,
                            rule_key)
from aspforget.parser_io import parse_program, parse_rule

from .conftest import rules as rule_strategy


def test_check_atom_accepts_identifiers():
    assert check_atom("a") == "a"
    assert check_atom("p_1X") == "p_1X"
    assert check_atom("notx") == "notx"


@pytest.mark.parametrize("bad", ["", "A", "1a", "not", "a-b", "a b", "_a"])
def test_check_atom_rejects(bad):
    with pytest.raises(ValueError):
        check_atom(bad)


def test_rule_equality_ignores_listed_order():
    assert parse_rule("a | b :- c, d.") == parse_rule("b | a :- d, c.")
    p = parse_program("a | b :- c. b | a :- c.")
    assert len(p) == 1


def test_rule_canonical_str():
    r = rule(["b", "a"], ["c"], ["d"], ["e"])
    assert str(r) == "a | b :- c, not d, not not e."
    r = rule(["b", "a"], ["y", "c", "x"], ["z", "d"], ["f", "e"])
    assert str(r) == ("a | b :- c, x, y, not d, not z, "
                      "not not e, not not f.")
    assert str(rule(["a"])) == "a."
    assert str(rule(pbody=["a"])) == ":- a."
    assert str(rule()) == ":-."


def test_rule_accessors():
    r = rule(["a", "q"], ["b"], ["q"], ["c"])
    assert r.atoms == frozenset({"a", "b", "c", "q"})
    assert not r.is_constraint
    assert rule().is_constraint


def test_rule_is_an_immutable_value():
    r = rule(["a"], ["b"], ["c"], ["d"])
    with pytest.raises(AttributeError):
        r.head = frozenset()
    # equal sets held in distinct objects make an equal rule
    copy = Rule(*(frozenset(set(s)) for s in r))
    assert all(a is not b for a, b in zip(r, copy))
    assert copy == r and hash(copy) == hash(r) and len({r, copy}) == 1
    assert copy.atoms == frozenset("abcd")
    # a named tuple: equal to the plain 4-tuple of its sets
    assert r == (r.head, r.pbody, r.nbody, r.nnbody)


def test_signature_examples(prog):
    assert prog("a :- b.").signature == {"a", "b"}
    assert Program().signature == frozenset()
    p = prog("t :- q. v :- not q. q :- s. q :- w.")
    assert p.signature == {"t", "q", "v", "s", "w"}


def test_tautology_cases(prog):
    assert is_tautological(parse_rule("p :- p."))
    assert is_tautological(parse_rule("a :- b, not b."))
    assert is_tautological(parse_rule("a :- not b, not not b."))
    assert not is_tautological(parse_rule("t :- q."))


def test_program_union_and_equality(prog):
    p = prog("a :- b.") | prog("c :- d.")
    assert p == prog("a :- b. c :- d.")
    assert len(p) == 2
    assert parse_rule("a :- b.") in p


def test_program_widen(prog):
    p = prog("a :- b.").widen(["z"])
    assert p.signature == {"a", "b", "z"}
    # rule set unchanged, so programs still compare equal
    assert p == prog("a :- b.")


def test_program_iteration_is_sorted(prog):
    p = prog("c. a :- b. b :- not c.")
    assert [str(r) for r in p] == ["a :- b.", "b :- not c.", "c."]


@given(rule_strategy)
def test_rule_key_is_stable(r):
    assert rule_key(r) == rule_key(Rule(r.head, r.pbody, r.nbody, r.nnbody))


@given(rule_strategy)
def test_tautology_detection_matches_definition(r):
    expected = bool(r.head & r.pbody or r.pbody & r.nbody
                    or r.nbody & r.nnbody)
    assert is_tautological(r) == expected


def test_every_export_resolves():
    missing = [n for n in aspforget.__all__ if not hasattr(aspforget, n)]
    assert missing == []
    namespace = {}
    exec("from aspforget import *", namespace)
    assert set(aspforget.__all__) <= set(namespace)


def test_import_loads_no_third_party_numeric_package():
    # in a fresh interpreter, importing the package and its CLI loads
    # neither numpy nor scipy
    src = os.path.dirname(os.path.dirname(aspforget.__file__))
    code = ("import sys, aspforget, aspforget.cli; "
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_modules_parse_as_python_3_10():
    # pyproject.toml promises Python >= 3.10; this checks syntax only
    src = os.path.dirname(aspforget.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                ast.parse(fh.read(), name, feature_version=(3, 10))


def _imports(module):
    """The (module, name) pairs a package module imports relatively."""
    src = os.path.dirname(aspforget.__file__)
    with open(os.path.join(src, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_module_boundaries():
    # the world encoding stays inside ht_semantics, and the normal form
    # depends on core alone
    assert [name for module, name in _imports("cli")
            if module == "ht_semantics"
            and (name.startswith("_") or name == "world_masks")] == []
    assert [name for module, name in _imports("normalform")
            if module == "distance"] == []
