"""Command-line interface, exercised in-process."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from aspforget import cli
from aspforget.ht_semantics import ht_models
from aspforget.parser_io import format_program

from .conftest import EXTRA_ATOMS, programs as program_strategy, stress_family

CHAIN = "t :- q. v :- not q. q :- s. q :- w.\n"
SELF_CYCLE = "q :- not not q. a :- q.\n"
MIXED_CYCLE = "q :- not not q. u :- q. s :- q. t :- not q.\n"
CHAIN_FORGOTTEN = "t :- s.\nt :- w.\nv :- not s, not w.\n"
DATA = Path(__file__).parent / "data"


@pytest.fixture
def lp(tmp_path):
    def write(text, name="p.lp"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# forgetting


def test_forget_golden(lp, capsys):
    code, out, err = run(capsys, "forget", "--atom", "q", lp(CHAIN))
    assert (code, out, err) == (0, CHAIN_FORGOTTEN, "")


def test_forget_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CHAIN))
    code, out, _ = run(capsys, "forget", "--atom", "q", "-")
    assert (code, out) == (0, CHAIN_FORGOTTEN)


def test_forget_repeat_is_byte_identical(lp, capsys):
    path = lp(MIXED_CYCLE)
    first = run(capsys, "forget", "--atom", "q", path)
    second = run(capsys, "forget", "--atom", "q", path)
    assert first == second


def test_forget_fast_agrees(lp, capsys):
    path = lp("d :- not c. a :- q. q :- b.\n")
    full = run(capsys, "forget", "--atom", "q", path)
    fast = run(capsys, "forget", "--atom", "q", "--fast", path)
    assert full == fast == (0, "a :- b.\nd :- not c.\n", "")


def test_forget_trace(lp, capsys):
    code, out, _ = run(capsys, "forget", "--atom", "q", "--trace", lp(SELF_CYCLE))
    assert code == 0
    assert out == ("% 3a: a :- not not a.  <=  a :- q.; q :- not not q.\n"
                   "a :- not not a.\n")
    # the stress family at k = 2: families 3a, 4, 5 and 6 each draw from
    # two or more blocker sets
    code, out, _ = run(capsys, "forget", "--atom", "q", "--trace",
                       lp(format_program(stress_family(2))))
    assert code == 0
    assert out == (DATA / "forget_trace_stress2.txt").read_text()


def test_forget_trace_json_is_one_json_object(lp, capsys):
    # under --json the trace is a list in the payload, in the text order
    path = lp(CHAIN)
    code, out, err = run(capsys, "forget", "--atom", "q", "--trace", "--json",
                         path)
    data = json.loads(out)
    assert (code, err) == (0, "")
    assert data["rules"] == ["t :- s.", "t :- w.", "v :- not s, not w."]
    assert data["trace"][0] == {"tag": "1a", "rule": "t :- s.",
                                "sources": ["t :- q.", "q :- s."]}
    text = run(capsys, "forget", "--atom", "q", "--trace", path)[1]
    assert [f"% {e['tag']}: {e['rule']}  <=  {'; '.join(e['sources'])}"
            for e in data["trace"]] == [
        line for line in text.splitlines() if line.startswith("% ")]
    plain = run(capsys, "forget", "--atom", "q", "--json", path)[1]
    assert "trace" not in json.loads(plain)


def test_forget_fast_trace_prints_the_trace(lp, capsys):
    path = lp(CHAIN)
    full = run(capsys, "forget", "--atom", "q", "--trace", path)
    fast = run(capsys, "forget", "--atom", "q", "--fast", "--trace", path)
    assert fast == full
    assert full[1].startswith("% 1a: t :- s.")


def test_forget_fast_refuses_hard_instance(lp, capsys):
    code, out, err = run(capsys, "forget", "--atom", "q", "--fast",
                         "--trace", lp(SELF_CYCLE))
    assert (code, out) == (2, "")
    assert err == "aspforget: program is not q-forgettable; use forget()\n"


def test_forget_check_oracle(lp, capsys):
    code, out, err = run(capsys, "forget", "--atom", "q", "--check-oracle",
                         lp(CHAIN))
    assert (code, out) == (0, CHAIN_FORGOTTEN)
    assert err == "oracle: ok\n"


def test_forget_multiple_atoms_warns(lp, capsys):
    code, out, err = run(capsys, "forget", "--atoms", "q,u", lp(MIXED_CYCLE))
    assert code == 0
    assert "persistence guarantees hold per step" in err
    assert out == ("s :- not not s.\ns :- not t.\n"
                   "t :- not not t.\nt :- not s.\n")


def test_forget_repeated_atom_counts_once(lp, capsys):
    path = lp(SELF_CYCLE)
    once = run(capsys, "forget", "--atom", "q", "--trace", path)
    assert once[0] == 0 and once[1].startswith("% 3a: ")
    assert run(capsys, "forget", "--atom", "q,q", "--trace", path) == once
    assert (run(capsys, "forget", "--atoms", "q,a,q", path)
            == run(capsys, "forget", "--atoms", "q,a", path))


def test_forget_json(lp, capsys):
    code, out, _ = run(capsys, "--quiet", "forget", "--atom", "q", "--json",
                       lp(CHAIN))
    data = json.loads(out)
    assert code == 0
    assert data["rules"] == ["t :- s.", "t :- w.", "v :- not s, not w."]
    assert data["signature"] == ["s", "t", "v", "w"]


# ---------------------------------------------------------------------------
# other subcommands


def test_normalize(lp, capsys):
    path = lp("a :- b, not not b. a :- b, c.\n")
    assert run(capsys, "normalize", path) == (0, "a :- b.\n", "")
    assert run(capsys, "normalize", "--json", path) \
        == (0, '{"rules":["a :- b."],"signature":["a","b","c"]}\n', "")


def test_models_json(lp, capsys):
    code, out, _ = run(capsys, "models", "--json", lp(SELF_CYCLE))
    assert code == 0
    assert out == ('{"answer_sets":[[],["a","q"]],'
                   '"ht_models":[[[],[]],[[],["a"]],[["a"],["a"]],'
                   '[["a","q"],["a","q"]]],"signature":["a","q"]}\n')


@given(program_strategy,
       st.frozensets(st.sampled_from(EXTRA_ATOMS), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_models_json_is_sorted_pair_form(p, extra):
    # the pairs are emitted in order from the rows; they must equal the
    # decoded pair set sorted as [sorted(x), sorted(y)] lists
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(format_program(p))), \
            contextlib.redirect_stdout(out):
        code = cli.main(["models", "--json", "--signature", ",".join(extra),
                         "-"])
    members = ht_models(p.widen(extra)).members
    assert code == 0
    assert json.loads(out.getvalue())["ht_models"] \
        == sorted([sorted(m.x), sorted(m.y)] for m in members)


def test_models_text_sections(lp, capsys):
    code, out, _ = run(capsys, "models", lp("a.\n"))
    assert code == 0
    assert "signature:" in out and "ht-models:" in out \
        and "answer-sets:" in out
    assert run(capsys, "models", lp(SELF_CYCLE)) \
        == (0, "signature: {a,q}\n"
               "ht-models:\n  <{},{}>\n  <{},{a}>\n  <{a},{a}>\n"
               "  <{a,q},{a,q}>\n"
               "answer-sets:\n  {}\n  {a,q}\n", "")


def test_models_selection(lp, capsys):
    path = lp("a.\n")
    _, only_as, _ = run(capsys, "models", "--as", path)
    assert "answer-sets:" in only_as and "ht-models:" not in only_as
    _, only_ht, _ = run(capsys, "models", "--ht", path)
    assert "ht-models:" in only_ht and "answer-sets:" not in only_ht


def test_models_signature_widening(lp, capsys):
    _, narrow, _ = run(capsys, "models", "--json", lp("a.\n"))
    _, wide, _ = run(capsys, "models", "--json", "--signature", "b",
                     lp("a.\n"))
    assert json.loads(narrow)["signature"] == ["a"]
    assert json.loads(wide)["signature"] == ["a", "b"]
    assert run(capsys, "models", "--signature", "b", lp("a.\n")) \
        == (0, "signature: {a,b}\n"
               "ht-models:\n  <{a},{a}>\n  <{a},{a,b}>\n  <{a,b},{a,b}>\n"
               "answer-sets:\n  {a}\n", "")


def test_equiv(lp, capsys):
    left = lp("a.\n", "l.lp")
    right = lp("a. a :- b.\n", "r.lp")
    assert run(capsys, "equiv", left, right) \
        == (0, "strongly equivalent\n", "")
    other = lp("a :- not c.\n", "o.lp")
    code, out, _ = run(capsys, "equiv", left, other)
    assert (code, out) == (1, "not strongly equivalent\n")
    assert run(capsys, "equiv", "--signature", "b", left, right) \
        == (0, "strongly equivalent\n", "")
    # --signature widens the strong comparison only; neither program is
    # widened, so --weak ignores it
    many = ",".join(f"z{i}" for i in range(13))
    assert run(capsys, "equiv", "--weak", "--signature", many, left, left) \
        == (0, "equivalent (same answer sets)\n", "")
    code, out, err = run(capsys, "equiv", "--signature", many, left, left)
    assert (code, out) == (3, "")
    assert err.startswith("aspforget: signature has 14 atoms, limit is 12")


def test_equiv_weak(lp, capsys):
    forgotten = lp("t :- s. t :- w. v :- not s, not w.\n", "f.lp")
    original = lp(CHAIN, "p.lp")
    assert run(capsys, "equiv", original, forgotten)[0] == 1
    assert run(capsys, "equiv", "--weak", original, forgotten) \
        == (0, "equivalent (same answer sets)\n", "")


def test_omega_verdicts(lp, capsys):
    code, out, _ = run(capsys, "omega", "--atoms", "q", lp(MIXED_CYCLE))
    assert code == 0
    assert out == ("obstructed: forgetting {q} cannot preserve persistence"
                   " (witness Y={s,t,u})\n")
    code, out, _ = run(capsys, "omega", "--atoms", "q", lp(SELF_CYCLE))
    assert code == 1
    assert out == "not obstructed: {q} can be forgotten with persistence\n"
    code, out, _ = run(capsys, "omega", "--atoms", "q", "--signature", "b",
                       "--json", lp(SELF_CYCLE))
    assert code == 1
    assert out == ('{"candidates":[{"has_least":true,"rel":[[]],"y":[]},'
                   '{"has_least":true,"rel":[[],["q"]],"y":["a"]},'
                   '{"has_least":true,"rel":[[]],"y":["b"]},'
                   '{"has_least":true,"rel":[[],["q"]],"y":["a","b"]}],'
                   '"satisfies":false,"witness":null}\n')


def test_omega_json(lp, capsys):
    code, out, _ = run(capsys, "omega", "--atoms", "q", "--json", lp(MIXED_CYCLE))
    data = json.loads(out)
    assert code == 0
    assert data["satisfies"] is True
    assert data["witness"] == ["s", "t", "u"]
    assert out == ('{"candidates":['
                   '{"has_least":false,"rel":[],"y":[]},'
                   '{"has_least":false,"rel":[],"y":["s"]},'
                   '{"has_least":true,"rel":[[]],"y":["t"]},'
                   '{"has_least":false,"rel":[],"y":["u"]},'
                   '{"has_least":true,"rel":[[]],"y":["s","t"]},'
                   '{"has_least":true,"rel":[["q"]],"y":["s","u"]},'
                   '{"has_least":true,"rel":[[]],"y":["t","u"]},'
                   '{"has_least":false,"rel":[[],["q"]],"y":["s","t","u"]}],'
                   '"satisfies":true,"witness":["s","t","u"]}\n')


def test_qforgettable(lp, capsys):
    code, out, _ = run(capsys, "qforgettable", "--atom", "q", lp(SELF_CYCLE))
    assert (code, out) == (1, "not q-forgettable\n")
    code, out, _ = run(capsys, "qforgettable", "--atom", "q",
                       lp("d :- not c. a :- q. q :- b.\n"))
    assert (code, out) == (0, "q-forgettable\n")


def test_distance(lp, capsys):
    left = lp("a :- b, not c.\n", "l.lp")
    right = lp("a :- not c. b :- d.\n", "r.lp")
    assert run(capsys, "distance", left, right) == (0, "3\n", "")
    code, out, _ = run(capsys, "distance", "--witness", left, right)
    assert code == 0
    assert out == "3\n  a :- b, not c.  ~  a :- not c.\n"
    code, out, _ = run(capsys, "distance", "--json", left, right)
    assert code == 0
    assert out == ('{"distance":3,"matching":'
                   '[["a :- b, not c.","a :- not c."]]}\n')


def test_distance_witness_ignores_hash_seed(lp):
    # most pairs of rules tie on their shared head atoms, and set iteration
    # order follows string hashes; the witness must not
    left = lp("a :- j. a | e :- b. a | e :- j. a | i :- f. a | i.\n", "l.lp")
    right = lp(":- c. a :- c. a | i :- not g.\n", "r.lp")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "aspforget.cli", "distance", "--witness",
             "--json", left, right],
            capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_fsem(lp, capsys):
    code, out, _ = run(capsys, "fsem", "--atoms", "q", "--normalize", lp(SELF_CYCLE))
    assert (code, out) == (0, "a :- not not a.\n")
    assert run(capsys, "fsem", "--atoms", "q", "--normalize", "--json",
               lp(SELF_CYCLE)) \
        == (0, '{"rules":["a :- not not a."],"signature":["a"]}\n', "")
    code, out, _ = run(capsys, "fsem", "--atoms", "q",
                       lp("d :- not c. a :- q. q :- b.\n"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 21
    assert all(l.endswith(".") for l in lines)
    assert not any("q" in l for l in lines)


def test_verify_sp_file(lp, capsys):
    code, out, _ = run(capsys, "verify-sp", "--atom", "q", "--depth", "1",
                       lp(CHAIN))
    assert code == 0
    assert out == "instances: 1  contexts: 201  failures: 0\n"
    assert run(capsys, "verify-sp", "--atom", "q", "--depth", "0", "--json",
               lp(SELF_CYCLE)) \
        == (0, '[{"atom":"q","contexts":2,"failures":[],"obstructed":false,'
               '"program":["a :- q.","q :- not not q."]}]\n', "")
    # an empty program is still a program, not a request for the corpus
    assert run(capsys, "verify-sp", "--atom", "q", lp("", "e.lp")) \
        == (0, "instances: 1  contexts: 2  failures: 0\n", "")


def test_verify_sp_corpus(capsys):
    code, out, _ = run(capsys, "verify-sp", "--atom", "q", "--depth", "0",
                       "--count", "3", "--seed", "5")
    assert code == 0
    assert out == "instances: 16  contexts: 170  failures: 0\n"


def test_verify_sp_corpus_json(capsys):
    code, out, _ = run(capsys, "verify-sp", "--atom", "q", "--depth", "0",
                       "--count", "2", "--seed", "5", "--json")
    reports = json.loads(out)
    assert code == 0
    assert len(reports) == 15
    assert all(r["failures"] == [] for r in reports)
    assert {"atom", "contexts", "failures", "obstructed",
            "program"} <= set(reports[0])


# ---------------------------------------------------------------------------
# errors and exit codes


def test_parse_error_reports_position(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a :- , b."))
    code, out, err = run(capsys, "forget", "--atom", "a", "-")
    assert (code, out) == (2, "")
    assert err.startswith("aspforget: <stdin>:1:6:")
    assert "  a :- , b." in err


def test_signature_guard_exit(lp, capsys):
    text = "".join(f"x{i}.\n" for i in range(13))
    path = lp(text)
    code, _, err = run(capsys, "models", path)
    assert code == 3
    assert "(use --limit to accept the cost)" in err
    code, _, _ = run(capsys, "--limit", "14", "--quiet", "models", path)
    assert code == 0


@pytest.mark.parametrize("command", ["omega", "fsem"])
def test_signature_guard_counts_the_forgotten_atoms(lp, capsys, command):
    # the models are enumerated over all 14 atoms, q included
    path = lp("".join(f"x{i} :- q.\n" for i in range(13)))
    code, out, err = run(capsys, command, "--atoms", "q", path)
    assert (code, out) == (3, "")
    assert "signature has 14 atoms" in err


def test_verify_sp_context_guard_reads_the_limit_variable(lp, capsys,
                                                          monkeypatch):
    path = lp("x0. x1. x2. x3. x4. x5. x6. q :- x0.\n")
    code, _, err = run(capsys, "verify-sp", "--atom", "q", "--depth", "0",
                       path)
    assert code == 3 and "limit is 6" in err
    monkeypatch.setenv("ASPFORGET_SIGNATURE_LIMIT", "9")
    assert run(capsys, "verify-sp", "--atom", "q", "--depth", "0", path) \
        == (0, "instances: 1  contexts: 128  failures: 0\n", "")


def test_verify_sp_limit_is_the_only_cap(lp, capsys, monkeypatch):
    # --limit covers p and its contexts; the models over their signature
    # widened by q must not read the smaller environment variable
    monkeypatch.setenv("ASPFORGET_SIGNATURE_LIMIT", "3")
    assert run(capsys, "--limit", "5", "verify-sp", "--atom", "q",
               "--depth", "0", lp("a :- b, not c. q :- a.\n")) \
        == (0, "instances: 1  contexts: 8  failures: 0\n", "")


def test_undecodable_file_is_named(tmp_path, capsys):
    path = tmp_path / "p.lp"
    path.write_bytes(b"a :- b.\n\xff\n")
    code, out, err = run(capsys, "normalize", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"aspforget: cannot read {path}: 'utf-8' codec "
                          f"can't decode byte 0xff in position 8")


def test_undecodable_stdin_is_named(capsys, monkeypatch):
    # a text stream that escapes bad bytes, as sys.stdin does under a
    # POSIX locale: the bytes beneath it are decoded strictly instead
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(b"a.\n\xff\n"), encoding="utf-8",
        errors="surrogateescape"))
    code, out, err = run(capsys, "normalize", "-")
    assert (code, out) == (2, "")
    assert err.startswith("aspforget: cannot read <stdin>: 'utf-8' codec "
                          "can't decode byte 0xff in position 3")


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_signature_limit_variable(lp, capsys, monkeypatch, value):
    monkeypatch.setenv("ASPFORGET_SIGNATURE_LIMIT", value)
    assert run(capsys, "models", lp("a :- b.\n")) == (
        2, "", f"aspforget: ASPFORGET_SIGNATURE_LIMIT must be a non-negative "
               f"integer, got '{value}'\n")


@pytest.mark.parametrize("argv", [
    ("verify-sp", "--atom", "q", "--count", "-3"),
    ("--limit", "-1", "models"),
    ("--limit", "abc", "models"),
])
def test_negative_count_or_limit_is_a_usage_error(lp, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, lp(CHAIN)])
    assert exc.value.code == 2
    assert "argument --" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("forget", "--atom", "q"),                   # output fits the buffer
    ("models", "--signature", "a,b,c,d,e,f,g"),  # output overflows it
])
def test_closed_stdout_pipe_exits_quietly(lp, argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "aspforget.cli", *argv, lp(CHAIN)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""  # no traceback, no "Exception ignored"


def test_usage_error(capsys, lp):
    with pytest.raises(SystemExit) as exc:
        cli.main(["forget", lp(CHAIN)])
    assert exc.value.code == 2


def test_bad_atom_name(lp, capsys):
    code, _, err = run(capsys, "forget", "--atom", "Not", lp(CHAIN))
    assert code == 2
    assert "aspforget:" in err


def test_quiet_suppresses_verdicts(lp, capsys):
    code, out, _ = run(capsys, "--quiet", "qforgettable", "--atom", "q",
                       lp(SELF_CYCLE))
    assert (code, out) == (1, "")
    assert run(capsys, "--quiet", "omega", "--atoms", "q",
               lp(MIXED_CYCLE)) == (0, "", "")
    assert run(capsys, "--quiet", "omega", "--atoms", "q",
               lp(SELF_CYCLE)) == (1, "", "")
    assert run(capsys, "--quiet", "equiv", lp("a.\n", "l.lp"),
               lp("a :- not c.\n", "o.lp")) == (1, "", "")
    assert run(capsys, "--quiet", "verify-sp", "--atom", "q",
               lp(CHAIN)) == (0, "", "")


@pytest.mark.parametrize("command", ["equiv", "distance"])
def test_stdin_is_read_once(capsys, monkeypatch, command):
    monkeypatch.setattr("sys.stdin", io.StringIO("a.\n"))
    assert run(capsys, command, "-", "-") \
        == (2, "", "aspforget: standard input (-) can be read only once\n")
