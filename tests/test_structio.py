"""Structure-file fidelity: parse/write fixpoints, labels, schema errors."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagames.automata import PropAlphabet
from omegagames.benchgen import SplitMix64
from omegagames.errors import (
    DuplicateProp,
    IncompleteAutomaton,
    LabelSyntaxError,
    SchemaError,
    StructureSyntaxError,
    UnknownProp,
)
from omegagames.graph import PLAYER0, PLAYER1, PROBABILISTIC, build_game, validate_game
from omegagames.objectives import Parity, Rabin, Streett, buchi_parity
from omegagames.structio import (
    PropDecl,
    StateDecl,
    TransitionDecl,
    document_to_game,
    dpa_from_document,
    dpa_to_document,
    game_to_document,
    parse_label,
    parse_structure,
    streett_automaton_from_document,
    streett_automaton_to_document,
    structure_document,
    write_structure,
)

from .conftest import DATA, repeated_grant_automaton, sample_game, sample_pairs, sample_parity

GRAMMAR_SAMPLE = """
<structure label-on="transition" type="game">
  <alphabet type="propositional">
    <prop type="input">req</prop>
    <prop type="output">ack</prop>
  </alphabet>
  <stateSet>
    <state sid="0"><player>0</player><label>left</label></state>
    <state sid="1"><player>1</player></state>
    <state sid="2"><player>-1</player></state>
  </stateSet>
  <transitionSet>
    <transition tid="0"><from>0</from><to>1</to><read>req</read></transition>
    <transition tid="1"><from>1</from><to>2</to></transition>
    <transition tid="2"><from>2</from><to>0</to></transition>
    <transition tid="3"><from>2</from><to>1</to></transition>
  </transitionSet>
  <initialStateSet>
    <stateID>0</stateID>
  </initialStateSet>
  <acc type="parity">
    <accSet><stateID>0</stateID></accSet>
    <accSet><stateID>1</stateID><stateID>2</stateID></accSet>
  </acc>
</structure>
"""


def test_grammar_sample_counts():
    doc = parse_structure(GRAMMAR_SAMPLE)
    assert doc.kind == "game"
    assert len(doc.states) == 3
    assert len(doc.transitions) == 4
    assert doc.states[2].player == PROBABILISTIC
    assert doc.initial == (0,)


def test_parse_write_fixpoint_on_sample():
    doc = parse_structure(GRAMMAR_SAMPLE)
    once = write_structure(doc)
    assert parse_structure(once) == doc
    assert write_structure(parse_structure(once)) == once


def test_empty_state_set_is_schema_error():
    text = GRAMMAR_SAMPLE.replace(
        """<state sid="0"><player>0</player><label>left</label></state>
    <state sid="1"><player>1</player></state>
    <state sid="2"><player>-1</player></state>
  """,
        "",
    )
    with pytest.raises(SchemaError):
        parse_structure(text)


def test_xml_syntax_error_carries_position():
    """The position is reported once, however the XML is broken."""
    for text, position in (
        ("<structure type='game'>\n  <oops\n</structure>", "line 3, column 0"),
        ("parity 0;\n0 1 0 0;\n", "line 1, column 0"),
        ("<structure type='game'>\n  <stateSet>", "line 2, column 12"),
    ):
        with pytest.raises(StructureSyntaxError) as err:
            parse_structure(text)
        assert err.value.line is not None
        assert str(err.value).startswith(position + ": ")
        assert str(err.value).count("line") == 1


def test_repeated_grant_automaton_file_parses():
    doc = parse_structure((DATA / "repeated_grant.xml").read_text(encoding="utf-8"))
    assert len(doc.states) == 3
    assert len(doc.transitions) == 7  # merged-label transitions
    assert doc.acc_type == "parity"
    aut = dpa_from_document(doc)
    ref = repeated_grant_automaton()
    assert aut.delta == ref.delta
    assert aut.priorities == ref.priorities


def test_label_grammar():
    props = [PropDecl("c", "input"), PropDecl("g", "output")]
    assert parse_label("c ∧ g", props) == frozenset({("c", True), ("g", True)})
    assert parse_label("T", props) == frozenset()
    assert parse_label("true", props) == frozenset()
    assert parse_label("!c && g", props) == frozenset({("c", False), ("g", True)})
    assert parse_label("~c & ¬g", props) == frozenset({("c", False), ("g", False)})
    with pytest.raises(UnknownProp):
        parse_label("c ∧ x", props)
    with pytest.raises(DuplicateProp):
        parse_label("c ∧ c", props)
    with pytest.raises(LabelSyntaxError):
        parse_label("c ∧", props)
    with pytest.raises(LabelSyntaxError):
        parse_label("∧ c", props)
    with pytest.raises(LabelSyntaxError):
        parse_label("T ∧ c", props)


def test_format_letter_round_trip():
    """Every letter's label, as fa documents write it, parses back to the letter."""
    for inputs, outputs in [(("a", "b"), ("g",)), (("a",), ()), ((), ("g",)), ((), ())]:
        alpha = PropAlphabet(inputs, outputs)
        props = [PropDecl(p, "input") for p in inputs] + [PropDecl(p, "output") for p in outputs]
        for letter in range(alpha.n_letters):
            assert parse_label(alpha.format_letter(letter), props) == alpha.literals(letter)


def test_game_round_trip_with_probabilistic_state():
    g = build_game(
        [
            (PLAYER1, [1, 2], "zero"),
            (PROBABILISTIC, [0, 2], None),
            (PLAYER0, [2], None),
        ],
        initial=0,
    )
    doc = game_to_document(g, Parity((1, 2, 0)))
    g2, obj2 = document_to_game(parse_structure(write_structure(doc)))
    assert g2.owners == g.owners and g2.succ == g.succ
    assert g2.initial == 0
    assert obj2.priorities == (1, 2, 0)
    assert g2.support(1) == g.support(1)


def test_round_trip_all_acceptance_types():
    """Every acceptance type survives write/parse, and the parsed document
    decodes to the objective that was written, pairless Streett and Rabin
    objectives included."""
    rng = SplitMix64(0x10F11E)
    for trial in range(60):
        g = sample_game(rng)
        kind = trial % 6
        if kind == 1:
            # buchi documents: write by hand via structure_document
            acc = tuple(s for s in range(g.n) if rng.below(2))
            obj = buchi_parity(acc, g.n)
            doc = structure_document(
                "game",
                (),
                [StateDecl(s, g.owners[s], None) for s in range(g.n)],
                [
                    TransitionDecl(t, s, d, None)
                    for t, (s, d) in enumerate(
                        (s, d) for s in range(g.n) for d in g.succ[s]
                    )
                ],
                [0],
                "buchi",
                [acc],
            )
        else:
            if kind == 0:
                obj = sample_parity(rng, g.n)
            elif kind == 2:
                obj = Streett(sample_pairs(rng, g.n))
            elif kind == 3:
                obj = Rabin(sample_pairs(rng, g.n))
            else:
                obj = (Streett if kind == 4 else Rabin)([])
            doc = game_to_document(g, obj)
        text = write_structure(doc)
        assert parse_structure(text) == doc
        assert write_structure(parse_structure(text)) == text
        assert document_to_game(parse_structure(text))[1] == obj


@pytest.mark.parametrize(
    "obj",
    [Parity((0, 1, 2)), Parity((0,)), Streett([({5}, set())])],
    ids=["parity longer than the game", "parity shorter than the game", "pair state 5"],
)
def test_game_document_refuses_an_objective_that_does_not_fit(obj):
    g = build_game([(PLAYER0, [1]), (PLAYER1, [0])], initial=0)
    with pytest.raises(ValueError) as caught:
        game_to_document(g, obj)
    assert type(caught.value) is ValueError


def test_parsed_games_validate():
    doc = parse_structure(GRAMMAR_SAMPLE)
    game, _ = document_to_game(doc)
    assert validate_game(game) == []


def test_parsed_dead_end_reported_precisely():
    text = GRAMMAR_SAMPLE.replace(
        "<transition tid=\"0\"><from>0</from><to>1</to><read>req</read></transition>",
        "",
    )
    from omegagames.errors import InvalidGame

    doc = parse_structure(text)
    with pytest.raises(InvalidGame) as err:
        document_to_game(doc)
    assert any(v.rule == "dead-end" and v.state == 0 for v in err.value.diagnostics)


def test_fairness_wrapper_serializes_with_player_minus_one():
    from omegagames.synthesis import apply_fairness, dpa_to_synthesis_game

    sg = dpa_to_synthesis_game(repeated_grant_automaton())
    fg = apply_fairness(sg, {(0, 0)})
    doc = game_to_document(fg.graph, fg.parity)
    wrapper_sid = sg.graph.n
    decl = next(s for s in doc.states if s.sid == wrapper_sid)
    assert decl.player == PROBABILISTIC
    assert f'<state sid="{wrapper_sid}">\n      <player>-1</player>' in write_structure(doc)


def test_player_tag_required_in_games():
    text = GRAMMAR_SAMPLE.replace("<state sid=\"1\"><player>1</player></state>", "<state sid=\"1\"></state>")
    with pytest.raises(SchemaError):
        parse_structure(text)


def test_games_need_exactly_one_initial():
    text = GRAMMAR_SAMPLE.replace(
        "<stateID>0</stateID>", "<stateID>0</stateID><stateID>1</stateID>"
    )
    with pytest.raises(SchemaError):
        parse_structure(text)


def test_dpa_document_round_trip():
    aut = repeated_grant_automaton()
    doc = dpa_to_document(aut)
    text = write_structure(doc)
    back = dpa_from_document(parse_structure(text))
    assert back.delta == aut.delta
    assert back.priorities == aut.priorities
    assert back.initial == aut.initial


def test_streett_automaton_round_trip():
    from omegagames.synthesis import Assumption, assumption_to_streett_automaton, dpa_to_synthesis_game

    sg = dpa_to_synthesis_game(repeated_grant_automaton())
    sa = assumption_to_streett_automaton(sg, Assumption(frozenset(), frozenset({(0, 0)})))
    doc = streett_automaton_to_document(sa)
    text = write_structure(doc)
    back = streett_automaton_from_document(parse_structure(text))
    assert back.delta == sa.delta
    assert back.pairs == sa.pairs
    for stem, cycle in (((), (0,)), ((3,), (1, 2)), ((2, 3), (3,))):
        assert back.accepts_lasso(stem, cycle) == sa.accepts_lasso(stem, cycle)


def test_incomplete_dpa_document():
    doc = parse_structure((DATA / "repeated_grant.xml").read_text(encoding="utf-8"))
    pruned = structure_document(
        doc.kind,
        doc.props,
        doc.states,
        [t for t in doc.transitions if t.tid != 0],
        doc.initial,
        doc.acc_type,
        doc.acc_sets,
    )
    with pytest.raises(IncompleteAutomaton, match="^state 0 has no transition on "):
        dpa_from_document(pruned)
    completed = dpa_from_document(pruned, complete=True)
    assert completed.n == 4  # rejecting sink added
    assert completed.priorities[3] == 1
    assert completed.labels[3] == "reject-sink"
    assert completed.delta[3] == (3,) * completed.alphabet.n_letters
    assert completed.delta[0][0] == 3


def test_incomplete_streett_automaton_document():
    from omegagames.synthesis import Assumption, assumption_to_streett_automaton, dpa_to_synthesis_game

    sg = dpa_to_synthesis_game(repeated_grant_automaton())
    sa = assumption_to_streett_automaton(sg, Assumption(frozenset(), frozenset({(0, 0)})))
    doc = streett_automaton_to_document(sa)
    pruned = structure_document(
        doc.kind,
        doc.props,
        doc.states,
        [t for t in doc.transitions if t.tid != 1],
        doc.initial,
        doc.acc_type,
        doc.acc_sets,
    )
    letter = sa.alphabet.format_letter(1)
    with pytest.raises(IncompleteAutomaton, match=f"^state 0 has no transition on {letter}$"):
        streett_automaton_from_document(pruned)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_random_document_write_is_canonical(seed):
    rng = SplitMix64(seed)
    g = sample_game(rng)
    doc = game_to_document(g, sample_parity(rng, g.n))
    text = write_structure(doc)
    assert parse_structure(text) == doc
    assert write_structure(parse_structure(text)) == text
