"""Property-based tests of the file parsers and the console: whatever the
input, only an ``OmegagamesError`` escapes, and PGSolver export/import
round-trips.  Every example that solves runs on both kernels, which must
give the same answer or the same error.

The runs are derandomized, so every run of the suite tries the same
examples; raise ``max_examples`` locally for a longer search.
"""
import shlex
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from omegagames import _kernels, structio
from omegagames.console import ConsoleState, eval_statement
from omegagames.errors import OmegagamesError
from omegagames.graph import build_game
from omegagames.objectives import Parity, Rabin, Streett
from omegagames.pgsolver import export_pgsolver, import_pgsolver
from omegagames.solve import almost_sure_solve, cooperative_region, zielonka_solve
from omegagames.synthesis import dpa_to_synthesis_game

from .conftest import DATA, read_outcome

# The ``kernels`` fixture does not vary between examples.
FUZZ = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
SAMPLE_XML = (DATA / "sample_game.xml").read_text(encoding="utf-8")
# an unlabelled game in the writer's layout, which the scan reads
SCANNED_XML = (DATA / "streett2_reduced.xml").read_text(encoding="utf-8")
# two parity specifications and a Streett assumption automaton
FA_FILES = ("repeated_grant.xml", "request_grant.xml", "repeated_grant_assumption.xml")
FA_XML = [(DATA / name).read_text(encoding="utf-8") for name in FA_FILES]
# characters the PGSolver format cannot hold inside a quoted label
LABEL_BREAKERS = '"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'


@pytest.fixture
def kernels(request, monkeypatch):
    """The names of both kernels, with the built compiled kernel installed;
    only the pure kernel's when there is no C compiler to build the other."""
    try:
        monkeypatch.setattr(_kernels, "_core", request.getfixturevalue("compiled_kernel"))
    except pytest.skip.Exception:
        return ("python",)
    return ("python", "compiled")


def _on_kernels(kernels, fn, *args):
    """``fn(*args)`` on each kernel: its result, or its typed error as
    (type, message).  The kernels must agree; returns the common outcome."""
    outcomes = []
    for name in kernels:
        with _kernels.using(name):
            try:
                outcomes.append(fn(*args))
            except OmegagamesError as exc:
                outcomes.append((type(exc), str(exc)))
    assert all(o == outcomes[0] for o in outcomes), outcomes
    return outcomes[0]


def _load_pgsolver(text, kernels):
    """Import and solve; only typed errors may escape."""
    try:
        game = import_pgsolver(text)
    except OmegagamesError:
        return
    _on_kernels(kernels, zielonka_solve, *game)


def _load_xml(text):
    try:
        structio.document_to_game(structio.parse_structure(text))
    except OmegagamesError:
        pass


@FUZZ
@given(st.text())
def test_pgsolver_arbitrary_text_raises_only_typed_errors(kernels, text):
    _load_pgsolver(text, kernels)


_label = st.none() | st.text(alphabet=st.characters(blacklist_characters="\n\r"), max_size=6)
_node = st.tuples(
    st.integers(0, 8),
    st.integers(0, 2**64) | st.integers(0, 6),
    st.sampled_from(["0", "1", "2", "-1", "x"]),
    st.lists(st.integers(0, 9), max_size=4),
    _label,
    st.sampled_from([";", "", " ;", ";;"]),
)


def _node_line(node):
    ident, prio, owner, succ, label, end = node
    line = f"{ident} {prio} {owner} {','.join(map(str, succ))}"
    if label is not None:
        line += f' "{label}"'
    return line + end


@FUZZ
@given(
    st.sampled_from(["", "parity 3;\n", "parity x;\n", "parity 99999999999999999999\n"]),
    st.lists(_node, max_size=8),
)
def test_pgsolver_node_lines_raise_only_typed_errors(kernels, header, nodes):
    _load_pgsolver(header + "\n".join(map(_node_line, nodes)) + "\n", kernels)


@st.composite
def _mutated_xml(draw, text=SAMPLE_XML):
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 40)))
        kind = draw(st.sampled_from(["delete", "insert", "replace", "duplicate"]))
        if kind == "delete":
            text = text[:start] + text[end:]
        elif kind == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
        else:
            junk = draw(st.text(alphabet=st.sampled_from('<>/="-0123456789 \nabsx&;') | st.characters(), max_size=12))
            text = text[:start] + junk + (text[start:] if kind == "insert" else text[end:])
    return text


@FUZZ
@given(_mutated_xml())
@example("\ud800" + SAMPLE_XML)  # a lone surrogate cannot be encoded for the XML parser
def test_mutated_structure_file_raises_only_typed_errors(text):
    _load_xml(text)


@FUZZ
@given(st.sampled_from([SCANNED_XML, SAMPLE_XML]).flatmap(_mutated_xml))
def test_mutated_structure_file_reads_alike_on_both_readers(text):
    """The scan never reads a text the XML parser refuses: where it reads
    one, the XML parser reads an equal document or raises the same error."""
    scanned = read_outcome(structio._scan_game, text)
    if scanned is not None:
        assert scanned == read_outcome(structio._read_tree, text)
    _load_xml(text)


def _load_fa(text, complete):
    """Read both automaton kinds, then split the parity one; only typed
    errors may escape."""
    loaders = (
        lambda doc: dpa_to_synthesis_game(structio.dpa_from_document(doc, complete=complete)),
        structio.streett_automaton_from_document,
    )
    for load in loaders:
        try:
            load(structio.parse_structure(text))
        except OmegagamesError:
            pass


@FUZZ
@given(st.sampled_from(FA_XML).flatmap(_mutated_xml), st.booleans())
def test_mutated_automaton_file_raises_only_typed_errors(text, complete):
    _load_fa(text, complete)


@st.composite
def _parity_game(draw):
    n = draw(st.integers(1, 8))
    label = st.none() | st.text(alphabet=st.characters(blacklist_characters=LABEL_BREAKERS), max_size=6)
    states = [
        (
            draw(st.integers(0, 1)),
            draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)),
            draw(label),
        )
        for _ in range(n)
    ]
    priorities = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return build_game(states), Parity(tuple(priorities))


@FUZZ
@given(_parity_game())
def test_pgsolver_round_trip_keeps_game_and_regions(kernels, game_and_parity):
    g, par = game_and_parity
    g2, par2 = import_pgsolver(export_pgsolver(g, par))
    assert g2.owners == g.owners and g2.succ == g.succ and g2.labels == g.labels
    w0, w1, _, _ = _on_kernels(kernels, zielonka_solve, g, par)
    v0, v1, _, _ = _on_kernels(kernels, zielonka_solve, g2, par2)
    assert (w0.states, w1.states) == (v0.states, v1.states)



@st.composite
def _pair_game(draw):
    """A small 2-player game with a Streett or Rabin objective of at most
    two pairs, possibly none, whose pair states are drawn from [-2, n+2],
    so some are not states of the game."""
    n = draw(st.integers(1, 6))
    succ = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    game = build_game([(draw(st.integers(0, 1)), draw(succ)) for _ in range(n)])
    side = st.frozensets(st.integers(-2, n + 2), max_size=3)
    pairs = draw(st.lists(st.tuples(side, side), min_size=0, max_size=2))
    return game, draw(st.sampled_from([Streett, Rabin]))(pairs)


@FUZZ
@given(_pair_game())
@example((build_game([(0, [1]), (1, [1])]), Streett([({-1}, set())])))
@example((build_game([(0, [1]), (1, [0])]), Rabin([])))
def test_pair_states_outside_the_game_are_refused_by_every_solver(kernels, game_and_objective):
    """``almost_sure_solve`` for both players and ``cooperative_region``
    answer exactly when every pair state is a state of the game, and raise
    ``ValueError`` otherwise; any other error fails the test."""
    g, obj = game_and_objective
    fits = all(0 <= s < g.n for q, r in obj.pairs for s in q | r)
    calls = [(almost_sure_solve, g, obj, 0), (almost_sure_solve, g, obj, 1), (cooperative_region, g, obj)]
    for name in kernels:
        with _kernels.using(name):
            for fn, *args in calls:
                try:
                    fn(*args)
                except ValueError:
                    assert not fits
                else:
                    assert fits


# Console statements run against one state with a game, a parity
# automaton, its synthesis game and an assumption bound; statements that
# write files write into a temporary directory.
CONSOLE_LINES = (DATA / "console_session.txt").read_text(encoding="utf-8").splitlines() + [
    "$a = ParityAutomaton readFile repeated_grant.xml",
    "$sg = $a toSynthesisGame",
    "$sg realizable",
    "$f = $sg fairnessAssumption",
    "$sg sufficient $f",
    "$sg safetyAssumption",
    "$sg assumptionAutomaton",
    "$t = $sg transducer",
    "$s = StreettAutomaton readFile repeated_grant_assumption.xml",
    "$s writeFile s.xml",
    "$l = LTL toBuchiAutomaton",
    "$sg winningRegion 1",
]


@pytest.fixture
def console(tmp_path, monkeypatch):
    for name in ("sample_game.xml",) + FA_FILES:
        shutil.copy(DATA / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    state = ConsoleState()
    for line in (
        "$g = ParityGame readFile sample_game.xml",
        "$a = ParityAutomaton readFile repeated_grant.xml",
        "$sg = $a toSynthesisGame",
        "$f = $sg fairnessAssumption",
    ):
        state, _ = eval_statement(state, line)
    return state


def _eval(state, line, kernels):
    """The printed text of ``line``, or its typed error, on both kernels."""
    _on_kernels(kernels, lambda: eval_statement(state, line)[1])


@FUZZ
@given(st.text())
def test_console_arbitrary_statement_raises_only_typed_errors(console, kernels, line):
    _eval(console, line, kernels)


_shuffled_line = st.sampled_from(CONSOLE_LINES).flatmap(lambda line: st.permutations(shlex.split(line)))
_vocabulary = sorted({token for line in CONSOLE_LINES for token in shlex.split(line)})


@FUZZ
@given(_shuffled_line | st.lists(st.sampled_from(_vocabulary), max_size=6))
def test_console_shuffled_statement_raises_only_typed_errors(console, kernels, tokens):
    _eval(console, " ".join(tokens), kernels)
