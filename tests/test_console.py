"""Console statement grammar and replayability."""
import shutil

import pytest

from omegagames import synthesis
from omegagames.console import ConsoleState, eval_statement
from omegagames.errors import ConsoleParseError, TypeMismatch, UnboundVariable

from .conftest import DATA


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copy(DATA / "sample_game.xml", tmp_path / "sample_game.xml")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_lines(lines, state=None):
    state = state or ConsoleState()
    outputs = []
    for line in lines:
        state, out = eval_statement(state, line)
        if out:
            outputs.append(out)
    return state, outputs


def test_read_solve_print(workdir):
    state, outputs = run_lines(
        [
            "$g = ParityGame readFile sample_game.xml",
            "$w = $g winningRegion 0",
        ]
    )
    assert outputs[-1] == "{2, 3}"
    assert "$w" in state.bindings


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_statement(ConsoleState(), "$x")


def test_assignment_copies_silently(workdir):
    state, _ = run_lines(["$g = ParityGame readFile sample_game.xml"])
    state, out = eval_statement(state, "$h = $g")
    assert out == ""
    assert state.bindings["$h"] is state.bindings["$g"]


def test_cooperative_region_rejected_on_stochastic_game(workdir):
    state, _ = run_lines(["$g = ParityGame readFile sample_game.xml"])
    with pytest.raises(TypeMismatch):
        eval_statement(state, "$c = $g cooperativeWinningRegion")


def test_reduction_pipeline_identity(workdir):
    state, outputs = run_lines(
        [
            "$g = ParityGame readFile sample_game.xml",
            "$w = $g winningRegion 0",
            "$d = $g toDeterministicGame",
            "$v = $d winningRegion 0",
        ]
    )
    direct = outputs[1]
    reduced = outputs[3]
    originals = {int(tok) for tok in direct.strip("{}").split(",") if tok.strip()}
    lifted = {int(tok) for tok in reduced.strip("{}").split(",") if tok.strip()}
    # restricted to copies of original states (indices below the state count)
    assert {s for s in lifted if s < 5} == originals


def test_parse_errors():
    with pytest.raises(ConsoleParseError):
        eval_statement(ConsoleState(), "= $x")
    with pytest.raises(ConsoleParseError):
        eval_statement(ConsoleState(), "$x =")
    with pytest.raises(ConsoleParseError):
        eval_statement(ConsoleState(), "NoSuchObject readFile foo.xml")
    with pytest.raises(ConsoleParseError):
        eval_statement(ConsoleState(), "ParityGame")


def test_translation_actions_report_unsupported(workdir):
    state = ConsoleState()
    (workdir / "phi.ltl").write_text("GF grant\n", encoding="utf-8")
    state, _ = eval_statement(state, "$f = LTL readFile phi.ltl")
    with pytest.raises(TypeMismatch) as err:
        eval_statement(state, "$a = $f toBuchiAutomaton")
    assert "unsupported" in str(err.value)


def test_action_on_wrong_kind(workdir):
    state, _ = run_lines(["$g = ParityGame readFile sample_game.xml"])
    with pytest.raises(TypeMismatch):
        eval_statement(state, "$t = $g transducer")


def test_help_lists_actions():
    _, out = eval_statement(ConsoleState(), "ParityGame help")
    assert "winningRegion" in out and "toDeterministicGame" in out


def test_help_on_every_result_kind(workdir):
    shutil.copy(DATA / "repeated_grant.xml", workdir / "repeated_grant.xml")
    state, _ = run_lines(
        [
            "$g = ParityGame readFile sample_game.xml",
            "$sg = SynthesisGame readFile repeated_grant.xml",
            "$Region = $g winningRegion 0",
            "$Strategy = $g winningStrategy 0",
            "$Bool = $sg realizable",
            "$Assumption = $sg safetyAssumption",
            "$Transducer = $sg transducer",
            "$Text = $g help",
        ]
    )
    for kind in ("Region", "Strategy", "Bool", "Assumption", "Transducer", "Text"):
        assert state.bindings[f"${kind}"].kind == kind
        _, out = eval_statement(state, f"${kind} help")
        assert out.splitlines() == [f"actions for {kind}:", f"  {'help':28} this list"]


def test_empty_statement_is_silent():
    state, out = eval_statement(ConsoleState(), "   ")
    assert out == ""


def test_synthesis_actions_via_console(workdir):
    shutil.copy(DATA / "repeated_grant.xml", workdir / "repeated_grant.xml")
    state, outputs = run_lines(
        [
            "$sg = SynthesisGame readFile repeated_grant.xml",
            "$r = $sg realizable",
            "$a = $sg fairnessAssumption",
            "$ok = $sg sufficient $a",
            "$auto = $sg assumptionAutomaton",
            "$auto writeFile assumption.xml",
            "$sa = StreettAutomaton readFile assumption.xml",
        ]
    )
    assert outputs[1] == "false"
    assert "fair=[(0, 0)]" in outputs[2]
    assert outputs[3] == "true"
    assert state.bindings["$sa"].kind == "StreettAutomaton"


def test_session_replay_reproduces_golden_transcript(workdir):
    """Feeding the scripted session reproduces the stored transcript exactly."""
    lines = (DATA / "console_session.txt").read_text(encoding="utf-8").splitlines()
    _, outputs = run_lines(lines)
    got = "\n".join(outputs) + "\n"
    golden = (DATA / "console_session.golden").read_text(encoding="utf-8")
    assert got == golden
    # same session again: byte-identical output
    _, outputs2 = run_lines(lines)
    assert "\n".join(outputs2) + "\n" == golden


def test_console_runs_one_fairness_search_per_synthesis_game(workdir, monkeypatch):
    """The repair stages of a ``$sg`` are computed once and shared by all
    of its actions, and by its copies."""
    import omegagames.console

    shutil.copy(DATA / "repeated_grant.xml", workdir / "repeated_grant.xml")
    search = synthesis.minimize_fairness
    calls = []

    def counted(sg):
        calls.append(sg)
        return search(sg)

    for module in (synthesis, omegagames.console):
        if getattr(module, "minimize_fairness", None) is search:
            monkeypatch.setattr(module, "minimize_fairness", counted)
    _, outputs = run_lines(
        [
            "$sg = SynthesisGame readFile repeated_grant.xml",
            "$a = $sg fairnessAssumption",
            "$auto = $sg assumptionAutomaton",
            "$h = $sg",
            "$t = $h transducer",
        ]
    )
    assert len(calls) == 1
    assert outputs[1] == "assumption safety=[] fair=[(0, 0)]"
    assert outputs[2] == "StreettAutomaton[5 states, 1 pair]"
    assert outputs[3].startswith("transducer: 1 states")
