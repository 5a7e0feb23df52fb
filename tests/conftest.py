import pytest
from hypothesis import strategies as st

from aspforget.core import Program, Rule
from aspforget.harness import GOLDEN_PROGRAMS, CorpusSpec, generate_corpus
from aspforget.parser_io import parse_program


@pytest.fixture(scope="session")
def golden():
    return dict(GOLDEN_PROGRAMS)


@pytest.fixture(scope="session")
def small_corpus():
    """Quick shared corpus for module-level randomized checks."""
    return generate_corpus(CorpusSpec(count=150, seed=7))


@pytest.fixture
def prog():
    return parse_program


def stress_family(k):
    """2k + 2 rules whose forgetting of q emits 303 rules at k = 3 and
    1202 at k = 4: ``q | u_i :- b_i, not c_i.`` and ``t_i :- q, d_i.``
    for i < k, plus ``v :- not q.`` and ``q :- not not q, e.``"""
    return parse_program("".join(f"q | u{i} :- b{i}, not c{i}. t{i} :- q, d{i}. "
                                 for i in range(k))
                         + "v :- not q. q :- not not q, e.")


# ---------------------------------------------------------------------------
# hypothesis strategies over the 4-atom universe used by randomized tests

ATOM_POOL = ("a", "b", "c", "q")

atoms = st.sampled_from(ATOM_POOL)
atom_sets = st.frozensets(atoms, max_size=2)

# Extra atoms sort between those of the pool, so that widening a program by
# them moves its atoms onto bits above the first byte of a world row.
EXTRA_ATOMS = ("a0", "b0", "c0", "p", "r")

rules = st.builds(Rule, atom_sets, atom_sets, atom_sets, atom_sets)
programs = st.builds(lambda rs: Program(rs), st.frozensets(rules, max_size=4))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
