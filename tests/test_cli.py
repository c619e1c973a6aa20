"""CLI subcommands and exit codes."""
import io
import shutil
import subprocess
import sys

import pytest

from omegagames import _kernels
from omegagames.cli import cli_main
from omegagames.benchgen import BENCH_SIZE_BOUND, SplitMix64
from omegagames.errors import InvalidGame
from omegagames.graph import PLAYER0, PLAYER1, PROBABILISTIC, build_game
from omegagames.objectives import Parity, Streett
from omegagames.structio import game_to_document, write_structure

from .conftest import DATA, child_env, sample_game, sample_pairs

NOT_UTF8 = b'<?xml version="1.0"?>\n<structure \xe2\x28 />\n'


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name in ("sample_game.xml", "repeated_grant.xml", "request_grant.xml"):
        shutil.copy(DATA / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_solve_exit_codes(workdir, capsys):
    assert cli_main(["solve", "sample_game.xml", "--player", "0"]) == 1
    assert "{2, 3}" in capsys.readouterr().out
    assert cli_main(["solve", "sample_game.xml", "--player", "1"]) == 0


def test_solve_all_odd_loop_is_negative(workdir, capsys):
    g = build_game([(PLAYER0, [0])], initial=0)
    (workdir / "odd.xml").write_text(
        write_structure(game_to_document(g, Parity((1,)))), encoding="utf-8"
    )
    assert cli_main(["solve", "odd.xml", "--player", "0"]) == 1
    assert cli_main(["solve", "odd.xml", "--player", "1"]) == 0


def test_solve_reads_a_file_led_by_a_byte_order_mark(workdir, capsys):
    text = (workdir / "sample_game.xml").read_text(encoding="utf-8")
    (workdir / "bom.xml").write_text("\ufeff" + text, encoding="utf-8")
    assert cli_main(["solve", "bom.xml", "--player", "0"]) == 1
    assert "{2, 3}" in capsys.readouterr().out


def test_missing_file_is_input_error(workdir, capsys):
    assert cli_main(["solve", "nope.xml", "--player", "0"]) == 2


def test_non_utf8_file_is_input_error(workdir, capsys):
    (workdir / "bad.xml").write_bytes(NOT_UTF8)
    for argv in (["solve", "bad.xml", "--player", "0"], ["synth", "check", "bad.xml"]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read bad.xml: ") and "utf-8" in err


def test_repl_reports_file_errors_and_goes_on(workdir, capsys, monkeypatch):
    """A missing file, a non-UTF-8 file and an unwritable path each print
    ``error: …`` and the session evaluates the next line."""
    (workdir / "bad.xml").write_bytes(NOT_UTF8)
    session = "\n".join(
        [
            "$g = ParityGame readFile missing.xml",
            "$g = ParityGame readFile bad.xml",
            "$g = ParityGame readFile sample_game.xml",
            f"$o = $g writeFile {workdir / 'no-such-dir' / 'x.xml'}",
            "$g winningRegion 0",
        ]
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(session + "\n"))
    assert cli_main(["repl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "error: cannot read missing.xml: No such file or directory"
    assert lines[1].startswith("error: cannot read bad.xml: ")
    assert lines[2].startswith("ParityGame[")
    assert lines[3].startswith("error: cannot write ") and "no-such-dir" in lines[3]
    assert lines[4] == "{2, 3}"


def test_bad_backend_variable_is_input_error():
    """``OMEGAGAMES_BACKEND`` is resolved on first use, inside the CLI's
    error handling, not when the package is imported."""
    argv = ["solve", str(DATA / "sample_game.xml"), "--player", "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "omegagames", *argv],
        capture_output=True,
        text=True,
        env=child_env(OMEGAGAMES_BACKEND="fortran"),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: unknown kernel 'fortran'")
    assert "Traceback" not in proc.stderr


# Runs the CLI with its address space capped at 512 MB, so an allocation
# that grows with a priority value fails fast instead of filling the machine.
CAPPED_CLI = """
import resource, sys
cap = 512 << 20
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
from omegagames.cli import cli_main
sys.exit(cli_main(sys.argv[1:]))
"""


def test_sparse_huge_priority_converts_to_typed_error(tmp_path):
    """A 44-byte PGSolver file with priority 10**8 would need 10**8 + 1 GOAL
    accSets: ``convert --to goal`` refuses it before allocating them, while
    ``solve`` answers at once."""
    path = tmp_path / "sparse.gm"
    path.write_text("parity 100000000;\n0 100000000 0 1;\n1 0 1 0;\n", encoding="utf-8")

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-c", CAPPED_CLI, *argv],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )

    proc = run("convert", str(path), "--to", "goal", "-o", str(tmp_path / "sparse.xml"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: priority 100000000 needs 100000001 accSets")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "sparse.xml").exists()
    proc = run("solve", str(path), "--player", "0")
    assert (proc.returncode, proc.stdout) == (0, "winningRegion 0 = {0, 1}\n"), proc.stderr


def test_bench_above_the_size_bound_is_input_error():
    """A spec of 3 * 10**9 states once ran ``random_game`` into a
    ``MemoryError``; ``BenchSpec`` now refuses it before anything is
    allocated, so the capped child exits 2 at once."""
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, "bench", "--states", "3000000000", "--edges", "3000000000"],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"error: states and edges must be at most {BENCH_SIZE_BOUND}\n"


def test_malformed_file_is_input_error(workdir, capsys):
    (workdir / "bad.xml").write_text("<structure", encoding="utf-8")
    assert cli_main(["solve", "bad.xml", "--player", "0"]) == 2


def test_unbuilt_compiled_kernel_is_input_error(workdir, capsys, monkeypatch):
    monkeypatch.setattr(_kernels, "_core", None)  # as if the build were missing
    argv = ["--backend", "compiled", "solve", "sample_game.xml", "--player", "0"]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not built" in err
    # the kernel is chosen before any file is read
    argv[3] = "missing.xml"
    assert cli_main(argv) == 2
    assert "not built" in capsys.readouterr().err


def test_priority_beyond_the_kernels_is_input_error(kernel_name, tmp_path, capsys):
    """Priorities above 2**31 - 1 do not fit the compiled kernel's C ints;
    every kernel refuses them with a typed error."""
    path = tmp_path / "huge.gm"
    path.write_text("parity 1;\n0 99999999999999999999 0 1;\n1 2 1 0;\n", encoding="utf-8")
    for player in ("0", "1"):
        argv = ["--backend", kernel_name, "solve", str(path), "--player", player]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(2**31 - 1) in err


def test_xml_syntax_error_names_its_position_once(workdir, capsys):
    (workdir / "one.gm").write_text("parity 0;\n0 1 0 0;", encoding="utf-8")
    assert cli_main(["synth", "check", "one.gm"]) == 2
    assert capsys.readouterr().err == "error: line 1, column 0: syntax error\n"


def test_synth_check_unrealizable(workdir, capsys):
    assert cli_main(["synth", "check", "repeated_grant.xml"]) == 1
    assert "unrealizable" in capsys.readouterr().out


def test_synth_fairness_prints_the_edge(workdir, capsys):
    assert cli_main(["synth", "fairness", "repeated_grant.xml"]) == 0
    out = capsys.readouterr().out
    assert "1 fair edges" in out
    assert "¬c" in out


def test_synth_safety_request_grant(workdir, capsys):
    assert cli_main(["synth", "safety", "request_grant.xml"]) == 0
    out = capsys.readouterr().out
    assert "1 forbidden edges" in out
    assert "r ∧ c" in out


def test_synth_unsatisfiable_exit_code(workdir, capsys):
    alpha_game = build_game([(PLAYER0, [0])], initial=0)
    from omegagames.automata import DetParityAutomaton, PropAlphabet
    from omegagames.structio import dpa_to_document

    alpha = PropAlphabet(inputs=("a",), outputs=("b",))
    table = {(0, letter): 0 for letter in range(alpha.n_letters)}
    aut = DetParityAutomaton.from_table(alpha, 1, 0, (1,), table)
    (workdir / "unsat.xml").write_text(
        write_structure(dpa_to_document(aut)), encoding="utf-8"
    )
    assert cli_main(["synth", "safety", "unsat.xml"]) == 3
    assert cli_main(["synth", "fairness", "unsat.xml"]) == 3


def test_reduce_then_solve(workdir, capsys):
    assert cli_main(["reduce", "sample_game.xml", "-o", "red.xml"]) == 0
    assert cli_main(["solve", "red.xml", "--player", "0"]) == 1
    out = capsys.readouterr().out
    assert "{2, 3" in out  # original copies stay winning


def test_convert_pgsolver_round_trip(workdir, capsys):
    assert cli_main(["reduce", "sample_game.xml", "-o", "red.xml"]) == 0
    assert cli_main(["convert", "--to", "pgsolver", "red.xml", "-o", "red.gm"]) == 0
    assert (workdir / "red.gm").read_text(encoding="utf-8").startswith("parity ")
    # pgsolver carries no initial state; conversion back defaults it to 0
    assert cli_main(["convert", "--to", "goal", "red.gm", "-o", "back.xml"]) == 0
    assert cli_main(["solve", "back.xml", "--player", "0"]) == 1
    out = capsys.readouterr().out
    assert "{2, 3" in out


def test_reduce_of_pgsolver_game_starts_at_state_0(workdir, capsys):
    """PGSolver files carry no initial state; reduce gives the written
    document state 0, as convert does."""
    from omegagames import structio

    (workdir / "one.gm").write_text("parity 0;\n0 1 0 0;\n", encoding="utf-8")
    assert cli_main(["reduce", "one.gm", "-o", "one.xml"]) == 0
    doc = structio.parse_structure((workdir / "one.xml").read_text(encoding="utf-8"))
    game, _ = structio.document_to_game(doc)
    assert game.initial == 0


def test_convert_of_invalid_pgsolver_game_is_input_error(workdir, capsys):
    """An invalid game is refused where it is read: convert does not write
    a file that solve would then refuse."""
    (workdir / "dup.gm").write_text("parity 1;\n0 1 0 1,1;\n1 2 1 0;\n", encoding="utf-8")
    assert cli_main(["convert", "--to", "goal", "dup.gm", "-o", "dup.xml"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid game: duplicate-edge at state 0")
    assert not (workdir / "dup.xml").exists()


def test_convert_of_label_xml_cannot_hold_is_input_error(workdir, capsys):
    """A PGSolver label holding U+0001 is refused when converted to GOAL,
    instead of being written to a file that solve then cannot read."""
    (workdir / "lab.pg").write_text('parity 1;\n0 0 0 0,1 "x\x01y";\n1 1 1 0 "ok";\n', encoding="utf-8")
    assert cli_main(["convert", "lab.pg", "--to", "goal", "-o", "lab.xml"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: state 0: label holds U+0001, which XML 1.0 cannot hold\n"
    assert not (workdir / "lab.xml").exists()


def test_weight_count_must_match_edge_count():
    for weights in ([1], [1, 2, 3]):
        with pytest.raises(InvalidGame) as err:
            build_game([(PROBABILISTIC, [0, 1]), (PLAYER0, [0])], weights={0: weights})
        assert [(v.rule, v.state) for v in err.value.diagnostics] == [("support-mismatch", 0)]


def write_streett_games(directory):
    """Two small seeded Streett games: a 2-player one, whose reduction is
    the record product alone, and one with probabilistic states, whose
    reduction is the record product followed by the gadget."""
    for name, owners in (
        ("streett2.xml", (PLAYER0, PLAYER1)),
        ("streett3.xml", (PLAYER0, PLAYER1, PROBABILISTIC)),
    ):
        rng = SplitMix64(29)
        g = sample_game(rng, max_states=4, owners=owners)
        doc = game_to_document(g, Streett(sample_pairs(rng, g.n)))
        (directory / name).write_text(write_structure(doc), encoding="utf-8")


GOLDENS = [
    (["reduce", "sample_game.xml"], "sample_game_reduced.xml"),
    (["reduce", "streett2.xml"], "streett2_reduced.xml"),
    (["reduce", "streett3.xml"], "streett3_reduced.xml"),
    (["synth", "assumption", "request_grant.xml"], "request_grant_assumption.xml"),
    (["synth", "transducer", "repeated_grant.xml"], "repeated_grant_transducer.txt"),
    (["synth", "transducer", "request_grant.xml"], "request_grant_transducer.txt"),
]


@pytest.mark.parametrize("argv, golden", GOLDENS)
def test_output_matches_golden(argv, golden, workdir, capsys):
    """Derived games (the gadget, the record product, the fairness-wrapped
    synthesis game) keep their state order, edges and labels byte for byte."""
    write_streett_games(workdir)
    assert cli_main([*argv, "-o", "out"]) == 0
    assert (workdir / "out").read_bytes() == (DATA / golden).read_bytes()


def test_synth_assumption_matches_stored_automaton(workdir, capsys):
    """The Streett automaton that the parser fuzz tests mutate is this
    command's output."""
    assert cli_main(["synth", "assumption", "repeated_grant.xml"]) == 0
    stored = (DATA / "repeated_grant_assumption.xml").read_text(encoding="utf-8")
    assert capsys.readouterr().out == stored


def test_convert_rabin_streett_to_pgsolver_is_input_error(workdir, capsys):
    from omegagames.objectives import Rabin, Streett

    g = build_game([(PLAYER0, [1]), (PLAYER1, [0, 1])], initial=0)
    for name, obj in (("streett", Streett([({0}, {1})])), ("rabin", Rabin([({0}, {1})]))):
        (workdir / f"{name}.xml").write_text(
            write_structure(game_to_document(g, obj)), encoding="utf-8"
        )
        assert cli_main(["convert", "--to", "pgsolver", f"{name}.xml"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "omegagames reduce" in captured.err
        assert not captured.out


def test_coop_on_streett_game(workdir, capsys):
    from omegagames.objectives import Streett

    g = build_game([(PLAYER0, [1]), (PLAYER0, [0, 1])], initial=0)
    obj = Streett([({0}, {1})])
    (workdir / "streett.xml").write_text(
        write_structure(game_to_document(g, obj)), encoding="utf-8"
    )
    assert cli_main(["coop", "streett.xml"]) == 0
    out = capsys.readouterr().out
    assert "{0, 1}" in out


@pytest.mark.parametrize("objective", ["Streett", "Rabin"])
@pytest.mark.parametrize("owners", [(PLAYER0, PLAYER1), (PLAYER0, PLAYER1, PROBABILISTIC)])
def test_pairless_games_are_answered(workdir, capsys, objective, owners):
    """A Streett objective without pairs holds on every play and a Rabin
    one on none; ``solve``, ``reduce`` and the console's ``winningRegion``
    answer such documents with the oracle's regions."""
    from omegagames import objectives
    from omegagames.console import ConsoleState, eval_statement
    from omegagames.solve import almost_sure_solve, oracle_solve
    from omegagames.structio import document_to_game, parse_structure

    g = sample_game(SplitMix64(31), max_states=5, owners=owners)
    obj = getattr(objectives, objective)([])
    (workdir / "pairless.xml").write_text(write_structure(game_to_document(g, obj)), encoding="utf-8")
    state, _ = eval_statement(ConsoleState(), f"$g = {objective}Game readFile pairless.xml")
    for player in (PLAYER0, PLAYER1):
        expected = oracle_solve(g, obj, player)
        code = cli_main(["solve", "--player", str(player), "pairless.xml"])
        assert capsys.readouterr().out == f"winningRegion {player} = {expected}\n"
        assert code == (0 if g.initial in expected else 1)
        state, _ = eval_statement(state, f"$w = $g winningRegion {player}")
        assert state.bindings["$w"].payload.states == expected.states
    assert cli_main(["reduce", "pairless.xml", "-o", "reduced.xml"]) == 0
    reduced, parity = document_to_game(parse_structure((workdir / "reduced.xml").read_text()))
    region, _ = almost_sure_solve(reduced, parity, PLAYER0)
    assert region.states & set(range(g.n)) == oracle_solve(g, obj, PLAYER0).states


def test_bench_table_shape(workdir, capsys):
    assert (
        cli_main(
            [
                "bench",
                "--states",
                "40",
                "--edges",
                "160",
                "--priorities",
                "3",
                "--prob-frac",
                "0.1",
                "--seed",
                "7",
                "--reps",
                "2",
                "--csv",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["States", "Edges", "Avg.", "Best", "Worst"]
    assert "states,edges,avg,best,worst" in out


def test_bench_compare_times_both_kernels(compiled_kernel, monkeypatch, capsys):
    monkeypatch.setattr(_kernels, "_core", compiled_kernel)
    assert cli_main(["bench", "--states", "30", "--edges", "120", "--compare"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert "Avg.(compiled)" in header and "Avg.(python)" in header
    assert len(rows) == 1


@pytest.mark.parametrize(
    "option, value",
    [
        ("--states", "a"), ("--edges", "x"), ("--prob-frac", "abc"),
        ("--prob-frac", "nan"), ("--prob-frac", "0.5.1"), ("--prob-frac", "1/0"),
    ],
)
def test_bench_malformed_number_is_usage_error(option, value, capsys):
    argv = {"--states": "40", "--edges": "160", option: value}
    assert cli_main(["bench", *(part for pair in argv.items() for part in pair)]) == 2
    err = capsys.readouterr().err
    assert f"argument {option}:" in err
    assert "Traceback" not in err


def test_bench_unequal_size_lists_are_an_input_error(capsys):
    assert cli_main(["bench", "--states", "40,80", "--edges", "160"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --states and --edges need the same number of entries\n"


def test_synth_transducer_output_file(workdir, capsys):
    assert cli_main(["synth", "transducer", "repeated_grant.xml", "-o", "sys.txt"]) == 0
    text = (workdir / "sys.txt").read_text(encoding="utf-8")
    assert "transducer: 1 states" in text
