"""Structure-file fidelity: parse/write fixpoints, labels, schema errors,
and the scan of tool-written games against the XML parser."""
from dataclasses import replace
from xml.sax.saxutils import escape

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
    _read_tree,
    _scan_game,
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

from .conftest import (
    DATA,
    read_outcome,
    repeated_grant_automaton,
    sample_game,
    sample_pairs,
    sample_parity,
)

GAME, FA = "sample_game.xml", "repeated_grant.xml"
T1_FROM = '<transition tid="1">\n      <from>0</from>'
ACC0 = "<accSet>\n      <stateID>3</stateID>\n    </accSet>"
INIT = "<initialStateSet>\n    <stateID>0</stateID>"

# Single-fault mutants of the data files, then multi-fault ones that pin
# which fault is reported: the first in document order.
DIAGNOSTICS = [
    (GAME, [('<transition tid="0">', "<transition>")], SchemaError, "<transition> needs a tid attribute"),
    (GAME, [('<transition tid="0">', '<transition tid="x">')], SchemaError, "tid must be numeric, got 'x'"),
    (GAME, [('<transition tid="2">\n      <from>1</from>', '<transition tid="2">')], SchemaError,
     "transition 2 needs <from> and <to>"),
    (GAME, [("<to>4</to>", "<to> </to>")], SchemaError, "to must carry text"),
    (GAME, [("<to>4</to>", "<to></to>")], SchemaError, "to must carry text"),
    (GAME, [("<player>-1</player>", "<player>2</player>")], SchemaError,
     "state 2: player must be 0, 1 or -1, got '2'"),
    (GAME, [("<player>-1</player>", "<player></player>")], SchemaError, "player must carry text"),
    (GAME, [("<player>-1</player>", "<player>\n</player>")], SchemaError, "player must carry text"),
    (GAME, [("<player>0</player>", "<player>00</player>")], SchemaError,
     "state 0: player must be 0, 1 or -1, got '00'"),
    (GAME, [('<transition tid="3">', '<transition tid="2">')], SchemaError, "transition tids must be unique"),
    (GAME, [("<to>4</to>", "<to>9</to>")], SchemaError, "transition 3 references unknown state"),
    (GAME, [("<from>2</from>", "<from>-3</from>")], SchemaError, "transition 4 references unknown state"),
    (GAME, [('<state sid="1">', "<state>")], SchemaError, "<state> needs a sid attribute"),
    (GAME, [('<state sid="1">', '<state sid="one">')], SchemaError, "sid must be numeric, got 'one'"),
    (GAME, [('<state sid="4">', '<state sid="3">')], SchemaError, "state sids must be unique"),
    (GAME, [('<state sid="1">\n      <player>1</player>', '<state sid="1">')], SchemaError,
     "state 1: game states need a player tag"),
    (GAME, [("<from>0</from>", "<from>zero</from>")], SchemaError, "from must be numeric, got 'zero'"),
    (GAME, [("<from>0</from>", "<from><x/></from>")], SchemaError, "from must carry text"),
    (GAME, [(INIT, "<initialStateSet>\n    <stateID>x</stateID>")], SchemaError,
     "stateID must be numeric, got 'x'"),
    (GAME, [(INIT, "<initialStateSet>\n    <stateID>8</stateID>")], SchemaError, "initial state 8 is not declared"),
    (GAME, [(INIT, "<initialStateSet>")], SchemaError, "initialStateSet must not be empty"),
    (GAME, [(INIT, INIT + "<stateID>1</stateID>")], SchemaError, "games need exactly one initial state"),
    (GAME, [(ACC0, "<accSet><stateID>three</stateID></accSet>")], SchemaError,
     "stateID must be numeric, got 'three'"),
    (GAME, [(ACC0, "<accSet><stateID/></accSet>")], SchemaError, "stateID must carry text"),
    (GAME, [(ACC0, "<accSet><stateID>7</stateID></accSet>")], SchemaError, "accSet 0 references unknown state 7"),
    (GAME, [(ACC0, "<accSet/>")], SchemaError, "parity accSets must cover every state"),
    (GAME, [(ACC0, "<accSet><stateID>3</stateID><stateID>0</stateID></accSet>")], SchemaError,
     "parity accSets must be disjoint (state 0)"),
    (GAME, [(ACC0, "<accSet><E><stateID>3</stateID></E></accSet>")], SchemaError,
     "accSet needs both an E and an F block"),
    (GAME, [(ACC0, "<accSet><E><stateID>3</stateID></E><F/></accSet>")], SchemaError,
     "accSet 0: plain stateID list expected"),
    (GAME, [(ACC0, "<accSet><E><stateID>3</stateID></E><F><stateID>x</stateID></F></accSet>")], SchemaError,
     "stateID must be numeric, got 'x'"),
    (GAME, [('<acc type="parity">', '<acc type="muller">')], SchemaError, "unknown acceptance type 'muller'"),
    (GAME, [('<acc type="parity">', '<acc type="buchi">')], SchemaError, "buchi acceptance needs exactly one accSet"),
    (GAME, [('<acc type="parity">', '<acc type="streett">')], SchemaError,
     "accSet 0: exactly one E and one F block expected"),
    (GAME, [('<acc type="parity">', "<acc>")], SchemaError, "unknown acceptance type ''"),
    (GAME, [('type="game"', 'type="arena"')], SchemaError, "structure type must be game or fa, got 'arena'"),
    (GAME, [(' type="game"', "")], SchemaError, "<structure> needs a type attribute"),
    (GAME, [("<structure ", "<game "), ("</structure>", "</game>")], SchemaError,
     "root element must be <structure>, got <game>"),
    (GAME, [("<stateSet>", "<states>"), ("</stateSet>", "</states>")], SchemaError, "missing <stateSet>"),
    (GAME, [('<acc type="parity">', "<accept>"), ("</acc>", "</accept>")], SchemaError, "missing <acc> block"),
    (FA, [("<read>c ∧ g</read>", "<read>c ∧ x</read>")], UnknownProp, "proposition 'x' is not declared"),
    (FA, [("<read>¬g</read>", "<read>g ∧ g</read>")], DuplicateProp, "proposition 'g' appears twice in 'g ∧ g'"),
    (FA, [("<read>c ∧ g</read>", "<read>c ∧</read>")], LabelSyntaxError, "label 'c ∧' ends in an operator"),
    (FA, [("\n      <read>T</read>", "")], SchemaError, "transition 3: fa transitions need a read symbol"),
    (FA, [("<read>T</read>", "<read> </read>")], SchemaError, "transition 3: fa transitions need a read symbol"),
    (FA, [('<state sid="0">', '<state sid="0"><player>0</player>')], SchemaError,
     "state 0: player tags only apply to games"),
    (FA, [('<prop type="input">', '<prop type="env">')], SchemaError, "prop type must be input or output, got 'env'"),
    (FA, [('<prop type="input">c<', '<prop type="input">g<')], SchemaError,
     "alphabet proposition names must be unique"),
    (FA, [('<prop type="input">c<', '<prop type="input"><')], SchemaError, "prop must carry text"),
    (FA, [("<to>0</to>", "<to>0.5</to>")], SchemaError, "to must be numeric, got '0.5'"),
    (GAME, [("<to>4</to>", "<to>0_1</to>")], SchemaError, "to must be numeric, got '0_1'"),
    (GAME, [('<state sid="1">', '<state sid="+1">')], SchemaError, "sid must be numeric, got '+1'"),
    (GAME, [("<to>4</to>", "<to>\u0661</to>")], SchemaError, "to must be numeric, got '\u0661'"),
    (GAME, [(INIT, "<initialStateSet>\n    <stateID>\uff10</stateID>")], SchemaError,
     "stateID must be numeric, got '\uff10'"),
    # XML whitespace is space, tab, CR and LF only
    (GAME, [("<to>4</to>", "<to>\u00a04\u3000</to>")], SchemaError, r"to must be numeric, got '\xa04\u3000'"),
    (GAME, [('<state sid="1">', '<state sid="\u00a01">')], SchemaError, r"sid must be numeric, got '\xa01'"),
    (FA, [('type="fa"', 'type="game"')], SchemaError, "state 0: game states need a player tag"),
    (GAME, [(T1_FROM, '<transition tid="1">\n      <from>zero</from>'), ('<transition tid="2">', "<transition>")],
     SchemaError, "from must be numeric, got 'zero'"),
    (GAME, [('<state sid="3">', "<state>"), ("<player>1</player>", "<player>2</player>")], SchemaError,
     "state 1: player must be 0, 1 or -1, got '2'"),
    (GAME, [("<to>0</to>", "<to>x</to>"), ("<player>0</player>", "<player/>")], SchemaError,
     "player must carry text"),
]

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


@pytest.mark.parametrize("name, edits, error, message", DIAGNOSTICS)
def test_parser_diagnostics_are_pinned(name, edits, error, message):
    """Each mutant raises exactly this error type and message."""
    text = (DATA / name).read_text(encoding="utf-8")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    with pytest.raises(error) as caught:
        parse_structure(text)
    assert type(caught.value) is error
    assert str(caught.value) == message


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


@pytest.mark.parametrize("label", ["a\rb", "t\tz", "a&b<c>", "a\r\nb \n", ""])
def test_labels_round_trip_exactly(label):
    """Carriage returns, tabs and markup characters in a label read back
    as written, and an empty label as an empty label."""
    g = build_game([(PLAYER0, [0], label)], initial=0)
    doc = game_to_document(g, Parity((0,)))
    text = write_structure(doc)
    assert parse_structure(text) == doc
    assert document_to_game(parse_structure(text))[0].label(0) == label


@pytest.mark.parametrize(
    "label, code", [("x\x01y", "0001"), ("\x0b", "000B"), ("a\ufffe", "FFFE"), ("\ud800", "D800")]
)
def test_labels_xml_cannot_hold_are_refused(label, code):
    """Labels and prop names XML 1.0 cannot hold are refused by name."""
    game = game_to_document(build_game([(PLAYER0, [0], label)], initial=0), Parity((0,)))
    fa = structure_document("fa", [PropDecl(label, "input")], [StateDecl(0)], [], [0], "buchi", [(0,)])
    for doc, where in ((game, "state 0: label"), (fa, f"prop {label!r}")):
        with pytest.raises(SchemaError) as caught:
            write_structure(doc)
        assert str(caught.value) == f"{where} holds U+{code}, which XML 1.0 cannot hold"


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


def _shuffled(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _padded(rng, value):
    """``value`` in one of the whitespace wrappings the reader must accept."""
    return ("", " ", "\n  ", "\t")[rng.below(4)] + str(value) + ("", " ", "\n")[rng.below(3)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.booleans())
def test_random_noncanonical_document_reads_back(seed, sparse):
    """Shuffled elements and children, sparse or negative ids, whitespace
    around every number, read symbols and labels: the parsed document is the
    canonical one of the same declarations, and its game and objective are
    those of ranking the sids (the identity when they are 0..n-1)."""
    rng = SplitMix64(seed)
    g = sample_game(rng)
    prio = sample_parity(rng, g.n).priorities
    n = g.n
    sids = list(range(n))
    if sparse:
        sids = sorted(_shuffled(rng, range(-n, 3 * n))[:n])
    sids = _shuffled(rng, sids)  # state s is declared with sid sids[s]
    props = [PropDecl("req", "input"), PropDecl("ack", "output")]
    labels = [(None, "", "start", " two words ", "a&b<c>\n")[rng.below(5)] for _ in range(n)]
    reads = (None, "T", "req", "¬ack", "req ∧ ack")
    edges = [(s, t) for s in range(n) for t in g.succ[s]]
    tids = _shuffled(rng, range(-len(edges), 3 * len(edges)))[: len(edges)]
    states = [StateDecl(sids[s], g.owners[s], labels[s]) for s in range(n)]
    transitions = [
        TransitionDecl(tid, sids[s], sids[t], reads[rng.below(len(reads))])
        for tid, (s, t) in zip(tids, edges)
    ]
    initial = rng.below(n)
    acc_sets = [
        tuple(sorted(sids[s] for s in range(n) if prio[s] == k)) for k in range(max(prio) + 1)
    ]
    tags = {PLAYER0: "0", PLAYER1: "1", PROBABILISTIC: "-1"}

    def state_xml(d):
        children = [f"<player>{_padded(rng, tags[d.player])}</player>"]
        if d.label == "" and rng.below(2):
            children.append("<label/>")  # an empty label reads as ""
        elif d.label is not None:
            children.append(f"<label>{escape(d.label)}</label>")
        return f'<state sid="{_padded(rng, d.sid)}">' + "".join(_shuffled(rng, children)) + "</state>"

    def transition_xml(d):
        children = [f"<from>{_padded(rng, d.src)}</from>", f"<to>{_padded(rng, d.dst)}</to>"]
        if d.read is not None:
            children.append(f"<read>{_padded(rng, d.read)}</read>")
        elif rng.below(2):
            children.append("<read> </read>")  # a blank read symbol is none
        return f'<transition tid="{_padded(rng, d.tid)}">' + "".join(_shuffled(rng, children)) + "</transition>"

    def ids_xml(ids):
        return "".join(f"<stateID>{_padded(rng, sid)}</stateID>" for sid in _shuffled(rng, ids))

    text = "".join([
        '<structure type="game"><alphabet>',
        *(f'<prop type="{p.kind}">{_padded(rng, p.name)}</prop>' for p in props),
        "</alphabet><stateSet>",
        *(state_xml(d) for d in _shuffled(rng, states)),
        "</stateSet><transitionSet>",
        *(transition_xml(d) for d in _shuffled(rng, transitions)),
        f"</transitionSet><initialStateSet>{ids_xml([sids[initial]])}</initialStateSet>",
        '<acc type="parity">',
        *(f"<accSet>{ids_xml(acc)}</accSet>" for acc in acc_sets),
        "</acc></structure>",
    ])
    doc = parse_structure(text)
    assert doc == structure_document(
        "game", props, states, transitions, [sids[initial]], "parity", acc_sets
    )
    game, obj = document_to_game(doc)
    rank = {sid: k for k, sid in enumerate(sorted(sids))}
    owners, succ, ranked_prio = [None] * n, [[] for _ in range(n)], [None] * n
    for s in range(n):
        owners[rank[sids[s]]] = g.owners[s]
        ranked_prio[rank[sids[s]]] = prio[s]
    for d in sorted(transitions, key=lambda d: d.tid):
        succ[rank[d.src]].append(rank[d.dst])
    assert list(game.owners) == owners
    assert [list(row) for row in game.succ] == succ
    assert game.initial == rank[sids[initial]]
    assert obj == Parity(tuple(ranked_prio))


# ---------------------------------------------------------------------------
# the scan of tool-written games, with the XML parser as its oracle


def _written_game(rng, acc_type):
    """The writer's text of a random unlabelled game with ``acc_type``
    acceptance."""
    g = sample_game(rng)
    if acc_type in ("rabin", "streett"):
        obj = (Rabin if acc_type == "rabin" else Streett)(sample_pairs(rng, g.n))
        return write_structure(game_to_document(g, obj))
    doc = game_to_document(g, sample_parity(rng, g.n))
    if acc_type == "buchi":
        doc = replace(doc, acc_type="buchi", acc_sets=(doc.acc_sets[0],))
    return write_structure(doc)


# Edits of the writer's text.  Most keep its layout and, in some games,
# break a schema rule or the order of a stateID list.
LAYOUT_EDITS = [
    ("", ""),
    ('sid="0"', 'sid="1"'),
    ('tid="0"', 'tid="1"'),
    ("<to>0</to>", "<to>97</to>"),
    ("<stateID>1</stateID>", "<stateID>0</stateID>"),
    ("<initialStateSet>", "<initialStateSet><stateID>1</stateID>"),
    ("<initialStateSet>\n    <stateID>0</stateID>\n", "<initialStateSet>"),
    ('<acc type="parity">', '<acc type="streett">'),
    ('<acc type="streett">', '<acc type="buchi">'),
    ('<acc type="rabin">', '<acc type="parity">'),
    ("\n      <F>", "</accSet><accSet><F>"),
    ("<accSet>\n", "<accSet><stateID>1</stateID>"),
    ("<E>\n", "<E><stateID>1</stateID>"),
    ("\n", "\r\n\t"),
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(["buchi", "parity", "rabin", "streett"]),
    st.sampled_from(LAYOUT_EDITS),
)
def test_scanned_game_equals_the_xml_parsers(seed, acc_type, edit):
    """Where the scan reads a text, the XML parser reads an equal document
    or raises the same error, and the scan reads the writer's every game."""
    text = _written_game(SplitMix64(seed), acc_type)
    if edit == LAYOUT_EDITS[0]:
        assert _scan_game(text) is not None
    text = text.replace(*edit)
    scanned = read_outcome(_scan_game, text)
    if scanned is not None:
        assert scanned == read_outcome(_read_tree, text)
    assert read_outcome(parse_structure, text) == read_outcome(_read_tree, text)


SMALL_GAME = write_structure(
    game_to_document(
        build_game([(PLAYER0, [1]), (PROBABILISTIC, [0, 1])], initial=0), Parity((1, 0))
    )
)
DECLINED = {
    "xml declaration": '<?xml version="1.0" encoding="UTF-8"?>\n' + SMALL_GAME,
    "comment": SMALL_GAME.replace("<stateSet>", "<stateSet><!-- two states -->"),
    "character reference": SMALL_GAME.replace("<to>1</to>", "<to>&#49;</to>"),
    "single-quoted attribute": SMALL_GAME.replace('sid="1"', "sid='1'"),
    "extra attribute": SMALL_GAME.replace('<state sid="1">', '<state sid="1" x="y">'),
    "leading byte order mark": "\ufeff" + SMALL_GAME,
    "label": SMALL_GAME.replace("</player>", "</player><label>x</label>", 1),
    "read symbol": SMALL_GAME.replace("</to>", "</to><read>T</read>", 1),
    "bytes": SMALL_GAME.encode("utf-8"),
    "form feed between tags": SMALL_GAME.replace("\n", "\f\n", 1),
    "player 2": SMALL_GAME.replace("<player>0</player>", "<player>2</player>"),
    "non-ASCII digit": SMALL_GAME.replace("<to>1</to>", "<to>\u0661</to>"),
}


def test_scan_reads_the_small_game():
    assert _scan_game(SMALL_GAME) == _read_tree(SMALL_GAME)


@pytest.mark.parametrize("text", DECLINED.values(), ids=DECLINED)
def test_scan_declines_what_the_writer_does_not_write(text):
    """Each of these is left to the XML parser, which reads it as before."""
    assert _scan_game(text) is None
    assert read_outcome(parse_structure, text) == read_outcome(_read_tree, text)


def test_sid_int_refuses_reads_as_the_xml_parser_reads_it():
    """A sid of more digits than ``int`` converts by default (4300) is the
    XML parser's ``SchemaError``, not a ``ValueError``."""
    text = SMALL_GAME.replace('sid="1"', 'sid="' + "1" * 5000 + '"')
    assert read_outcome(parse_structure, text) == read_outcome(_read_tree, text)


def test_scan_reads_a_large_written_game():
    """The writer's text of a 30,000-state game takes the scan, not the
    XML parser."""
    n = 30_000
    g = build_game(
        [((PLAYER0, PLAYER1, PROBABILISTIC)[s % 3], [(s + 1) % n, (s * 7) % n]) for s in range(n)],
        initial=0,
    )
    doc = game_to_document(g, Parity(tuple(s % 5 for s in range(n))))
    assert _scan_game(write_structure(doc)) == doc
