"""PGSolver interop: priority flip, round trips, region preservation."""
import pytest

from omegagames.benchgen import SplitMix64
from omegagames.errors import NotDeterministicGame, SchemaError, StructureSyntaxError
from omegagames.graph import PLAYER0, PLAYER1, PROBABILISTIC, build_game
from omegagames.objectives import Parity
from omegagames.pgsolver import export_pgsolver, flip_priorities, import_pgsolver
from omegagames.solve import zielonka_solve

from .conftest import sample_game, sample_parity


def test_flip_is_involution_up_to_estar():
    for prios in ((0,), (0, 1, 2), (3, 5), (2, 4, 4)):
        flipped, estar = flip_priorities(prios)
        assert estar % 2 == 0 and estar >= max(prios)
        double, _ = flip_priorities(flipped)
        # double flip shifts by an even constant: winner parity preserved
        assert all((a - b) % 2 == 0 for a, b in zip(double, prios))
        assert all(p >= 0 for p in flipped)


def test_single_even_loop_exports_max_even():
    g = build_game([(PLAYER0, [0])], initial=0)
    text = export_pgsolver(g, Parity((0,)))
    assert text.splitlines()[0] == "parity 0;"
    # priority 0 flips to E* = 0: still even, same winner
    assert text.splitlines()[1].startswith("0 0 0 0")


def test_export_rejects_stochastic_games():
    g = build_game([(PROBABILISTIC, [0])])
    with pytest.raises(NotDeterministicGame):
        export_pgsolver(g, Parity((0,)))


def test_import_syntax_errors():
    with pytest.raises(StructureSyntaxError):
        import_pgsolver("parity x;\n")
    with pytest.raises(StructureSyntaxError):
        import_pgsolver("0 0 2 0;\n")  # owner must be 0/1
    with pytest.raises(StructureSyntaxError):
        import_pgsolver("")
    # numbers are ASCII digits: an Arabic-Indic zero is no node id
    with pytest.raises(StructureSyntaxError, match="malformed node line"):
        import_pgsolver("parity 1;\n\u0660 0 0 1;\n1 1 1 0;\n")
    with pytest.raises(StructureSyntaxError, match="malformed parity header"):
        import_pgsolver("parity \u0661;\n0 0 0 1;\n1 1 1 0;\n")
    # fields are separated by spaces and tabs, not by other whitespace
    with pytest.raises(StructureSyntaxError, match="malformed node line"):
        import_pgsolver("parity 1;\n0\u2003 0 0 1;\n1 1 1 0;\n")
    with pytest.raises(StructureSyntaxError, match="malformed parity header"):
        import_pgsolver("parity\u00a01;\n0 0 0 1;\n1 1 1 0;\n")
    g, par = import_pgsolver("parity 1;\n\t0\t0 0 1 ;\n1 1\t1  0,\t1;\n")
    assert g.succ == ((1,), (0, 1)) and par.priorities == (2, 1)


def test_labels_round_trip():
    g = build_game([(PLAYER0, [1], "start"), (PLAYER1, [0], None)], initial=0)
    g2, _ = import_pgsolver(export_pgsolver(g, Parity((0, 1))))
    assert g2.label(0) == "start" and g2.label(1) is None


def test_export_rejects_labels_the_format_cannot_hold():
    for label in ('say "hi"', "two\nlines", "feed\x0c", "sep\u2028", "\r"):
        g = build_game([(PLAYER0, [1]), (PLAYER1, [0], label)], initial=0)
        with pytest.raises(SchemaError, match="state 1"):
            export_pgsolver(g, Parity((0, 1)))


def test_unrealizable_split_game_export_keeps_player1_winning_the_initial():
    from omegagames.synthesis import dpa_to_synthesis_game

    from .conftest import repeated_grant_automaton

    sg = dpa_to_synthesis_game(repeated_grant_automaton())
    text = export_pgsolver(sg.graph, sg.parity)
    g2, par2 = import_pgsolver(text)
    _, w1, _, _ = zielonka_solve(g2, par2)
    assert sg.graph.initial in w1.states  # unrealizable: player 1 wins node 0


def test_round_trip_preserves_regions_100_games():
    rng = SplitMix64(0x96501E)
    for _ in range(100):
        g = sample_game(rng, max_states=10, owners=(PLAYER0, PLAYER1))
        par = sample_parity(rng, g.n, priorities=4)
        g2, par2 = import_pgsolver(export_pgsolver(g, par))
        assert g2.succ == g.succ and g2.owners == g.owners
        w0, w1, _, _ = zielonka_solve(g, par)
        v0, v1, _, _ = zielonka_solve(g2, par2)
        assert w0.states == v0.states and w1.states == v1.states
