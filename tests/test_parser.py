"""Text format: grammar coverage, error positions, canonical printing."""

import pytest
from hypothesis import given

from aspforget.core import Program, rule
from aspforget.parser_io import (ParseError, format_program, format_rule,
                                 parse_program, parse_rule)

from .conftest import programs as program_strategy


def test_basic_forms(prog):
    p = prog("t :- q. v :- not q. q :- s. q :- w.")
    assert len(p) == 4
    r = parse_rule("q | u :- w.")
    assert r.head == {"q", "u"} and r.pbody == {"w"}
    assert parse_rule("a :- not not a.").nnbody == {"a"}
    c = parse_rule(":- a, not b.")
    assert c.head == frozenset() and c.pbody == {"a"} and c.nbody == {"b"}


def test_facts_and_degenerate_rules():
    assert parse_rule("a.") == rule(["a"])
    assert parse_rule("a | b.") == rule(["a", "b"])
    # the fully empty rule is expressible both ways
    assert parse_rule(":-.") == rule()
    assert parse_rule(".") == rule()


def test_comments_and_whitespace(prog):
    text = """
        % producer
        q :- s.    % inline trailer
        % consumer
        t :- q.
    """
    assert prog(text) == prog("q :- s. t :- q.")


def test_duplicate_rules_collapse(prog):
    assert len(prog("a :- b. a :- b.")) == 1


@pytest.mark.parametrize("text,line,col", [
    ("a :- b", 1, 7),          # missing final dot
    ("a :- , b.", 1, 6),       # dangling comma
    ("Not :- b.", 1, 1),       # bad atom start
    ("a :- not.", 1, 9),       # not without atom
    ("a | :- b.", 1, 5),       # dangling bar
    ("a :- b. c :-\nnot not not d.", 2, 9),
    ("a :- b\n", 1, 7),        # a final line break starts no new line
    # only \n ends a line, also inside a comment
    ("% x\x0cy\nb :- c", 2, 7),
    ("% a\x0cb\nc :- , d.", 2, 6),
])
def test_error_positions(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert (err.value.line, err.value.column) == (line, col)
    assert err.value.snippet == text.split("\n")[line - 1]


def test_triple_negation_asks_for_single():
    with pytest.raises(ParseError) as err:
        parse_program("a :- b. c :-\nnot not not d.")
    assert (err.value.line, err.value.column) == (2, 9)
    assert err.value.message == ("'not not not a' is not accepted; "
                                 "it collapses to 'not a', so write that")


def test_not_is_reserved():
    with pytest.raises(ParseError):
        parse_rule("not :- a.")
    with pytest.raises(ParseError):
        parse_rule("a | not :- b.")


def test_canonical_printing(prog):
    p = prog("v :- not q. q :- w. q :- s. t :- q.")
    assert format_program(p) == "q :- s.\nq :- w.\nt :- q.\nv :- not q.\n"
    assert format_program(Program()) == ""
    assert format_rule(parse_rule("u | t :- b, a.")) == "t | u :- a, b."
    # body order: positives, then not, then not not, each alphabetical
    assert format_rule(parse_rule("x :- not not a, not b, c.")) \
        == "x :- c, not b, not not a."


def test_round_trip_fixpoint(prog):
    text = "q :- s.\nq | u :- w.\nv :- not q, not not u.\n"
    p = prog(text)
    assert format_program(p) == text
    assert prog(format_program(p)) == p


@given(program_strategy)
def test_round_trip_random_programs(p):
    assert parse_program(format_program(p)) == p


def test_parse_error_carries_snippet():
    with pytest.raises(ParseError) as err:
        parse_program("a :- b.\nc :- d e.\n")
    assert "c :- d e." in err.value.snippet
    # \r\n is one line break; the \r is not part of the snippet
    with pytest.raises(ParseError) as err:
        parse_program("a.\r\nb :- ,\r\n")
    assert (err.value.line, err.value.column, err.value.snippet) \
        == (2, 6, "b :- ,")
