"""Text format: grammar coverage, error positions, canonical printing."""

import pytest
from hypothesis import given, strategies as st

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


# the message, where the column alone does not show which check fired
_MESSAGES = {
    "a :- , Bad.": "invalid atom name 'Bad'",
    "a :- \u00b2b.": "unexpected character '\u00b2'",
    "a :- b\u00b2 .": "invalid atom name 'b\u00b2'",
    "a :-\xa0b.": "unexpected character '\\xa0'",
    "a\x0b:- b.": "unexpected character '\\x0b'",
}


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
    # a bad token is reported before an earlier grammar error
    ("a :- , Bad.", 1, 8),
    # a word must start with a letter; one that does runs on through
    # every letter or digit, also outside ASCII
    ("a :- \u00b2b.", 1, 6),
    ("a :- b\u00b2 .", 1, 6),
    # the blanks are space, tab, CR and LF only
    ("a :-\xa0b.", 1, 5),
    ("a\x0b:- b.", 1, 2),
])
def test_error_positions(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert (err.value.line, err.value.column) == (line, col)
    assert err.value.snippet == text.split("\n")[line - 1]
    if text in _MESSAGES:
        assert err.value.message == _MESSAGES[text]


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


def _tokens(r):
    """The tokens of ``r`` as canonical printing orders them."""
    head = [t for a in sorted(r.head) for t in ("|", a)][1:]
    literals = ([[a] for a in sorted(r.pbody)]
                + [["not", a] for a in sorted(r.nbody)]
                + [["not", "not", a] for a in sorted(r.nnbody)])
    body = [t for lit in literals for t in [","] + lit][1:]
    return head + ([":-"] + body if body or not head else []) + ["."]


@given(program_strategy, st.data())
def test_blanks_and_comments_between_tokens(p, data):
    tokens = [t for r in sorted(p.rules, key=format_rule) for t in _tokens(r)]
    seps = data.draw(st.lists(st.sampled_from(
        [" ", "\t", "\n", "\r\n", "% comment\n"]),
        min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))
    assert parse_program(text) == p


def test_parse_error_carries_snippet():
    with pytest.raises(ParseError) as err:
        parse_program("a :- b.\nc :- d e.\n")
    assert "c :- d e." in err.value.snippet
    # \r\n is one line break; the \r is not part of the snippet
    with pytest.raises(ParseError) as err:
        parse_program("a.\r\nb :- ,\r\n")
    assert (err.value.line, err.value.column, err.value.snippet) \
        == (2, 6, "b :- ,")
