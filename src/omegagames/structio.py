"""GOAL-compatible XML structure files for games and automata.

The reader/writer pair is bit-faithful: ``write_structure`` emits a
canonical form (states by sid, transitions by tid, 2-space indentation)
and ``parse_structure(write_structure(doc))`` reproduces the document
exactly.  One codec maps objectives to accSets and back, for games and
automata alike: parity acceptance sets are ordered by priority value,
Rabin and Streett sets pair an E (request / infinitely-often) block with
an F block, and Buchi sets are read as two-priority parity.
Probabilistic game states carry player tag -1 and, since the format has no
weights, get uniform distributions on parse; qualitative answers do not
depend on the weights.  A game document is validated once, by
``build_game``, when ``document_to_game`` reads it.

An unlabelled game file in the writer's layout is read by a strict scan
of the text; every other file by the XML parser, with the same result and
the same diagnostics.  The XML parser is the oracle the tests hold the
scan to.
"""
from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union
from xml.parsers.expat import ErrorString
from xml.sax.saxutils import escape

from .automata import DetParityAutomaton, PropAlphabet, StreettAutomaton, delta_from_table
from .errors import (
    DuplicateProp,
    FileAccessError,
    LabelSyntaxError,
    SchemaError,
    StructureSyntaxError,
    TooLarge,
    UnknownProp,
)
from .graph import PLAYER0, PLAYER1, PROBABILISTIC, GameGraph, build_game, check_objective
from .objectives import Objective, Parity, Rabin, Streett, buchi_parity

_PLAYER_TAGS = {"0": PLAYER0, "1": PLAYER1, "-1": PROBABILISTIC}
_TAG_OF_OWNER = {owner: tag for tag, owner in _PLAYER_TAGS.items()}


def read_text(path) -> str:
    """The UTF-8 text of file ``path``, without a leading byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileAccessError(path, "read", exc) from None


def write_text(path, text: str) -> None:
    """Store ``text`` in file ``path`` as UTF-8."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FileAccessError(path, "write", exc) from None


def _is_pair_set(acc) -> bool:
    """E/F pair entries are 2-tuples of stateID tuples; plain sets hold ints."""
    return (
        isinstance(acc, tuple)
        and len(acc) == 2
        and all(isinstance(part, tuple) for part in acc)
    )


# Declarations are named tuples: a file builds one per state and per
# transition, and a tuple is far cheaper to make than a frozen dataclass.
class PropDecl(NamedTuple):
    name: str
    kind: str  # "input" | "output"


class StateDecl(NamedTuple):
    sid: int
    player: Optional[int] = None
    label: Optional[str] = None


class TransitionDecl(NamedTuple):
    tid: int
    src: int
    dst: int
    read: Optional[str] = None


@dataclass(frozen=True)
class StructureDocument:
    kind: str  # "game" | "fa"
    props: tuple[PropDecl, ...]
    states: tuple[StateDecl, ...]
    transitions: tuple[TransitionDecl, ...]
    initial: tuple[int, ...]
    acc_type: str  # "buchi" | "parity" | "rabin" | "streett"
    acc_sets: tuple  # plain: tuple[int,...] entries; paired: (E, F) entries


def structure_document(
    kind, props, states, transitions, initial, acc_type, acc_sets
) -> StructureDocument:
    """Canonicalize and schema-check a document."""
    doc = StructureDocument(
        kind=kind,
        props=tuple(props),
        states=tuple(sorted(states, key=itemgetter(0))),
        transitions=tuple(sorted(transitions, key=itemgetter(0))),
        initial=tuple(sorted(initial)),
        acc_type=acc_type,
        acc_sets=tuple(acc_sets),
    )
    _check_schema(doc)
    return doc


def _check_schema(doc: StructureDocument):
    if doc.kind not in ("game", "fa"):
        raise SchemaError(f"structure type must be game or fa, got {doc.kind!r}")
    if not doc.states:
        raise SchemaError("stateSet must not be empty")
    sid_set = set(map(itemgetter(0), doc.states))
    if len(sid_set) != len(doc.states):
        raise SchemaError("state sids must be unique")
    names = [p.name for p in doc.props]
    if len(set(names)) != len(names):
        raise SchemaError("alphabet proposition names must be unique")
    for p in doc.props:
        if p.kind not in ("input", "output"):
            raise SchemaError(f"prop type must be input or output, got {p.kind!r}")
    transitions = doc.transitions
    if len(set(map(itemgetter(0), transitions))) != len(transitions):
        raise SchemaError("transition tids must be unique")
    # A game document whose endpoints are all declared and that carries no
    # read symbol passes the per-transition loop; skip it.
    ends = chain(map(itemgetter(1), transitions), map(itemgetter(2), transitions))
    if doc.kind == "fa" or not (
        sid_set.issuperset(ends) and {None}.issuperset(map(itemgetter(3), transitions))
    ):
        for t in transitions:
            if t.src not in sid_set or t.dst not in sid_set:
                raise SchemaError(f"transition {t.tid} references unknown state")
            if doc.kind == "fa" and t.read is None:
                raise SchemaError(f"transition {t.tid}: fa transitions need a read symbol")
            if t.read is not None:
                parse_label(t.read, doc.props)
    for s in doc.states:
        if doc.kind == "game" and s.player is None:
            raise SchemaError(f"state {s.sid}: game states need a player tag")
        if doc.kind == "fa" and s.player is not None:
            raise SchemaError(f"state {s.sid}: player tags only apply to games")
    if not doc.initial:
        raise SchemaError("initialStateSet must not be empty")
    for sid in doc.initial:
        if sid not in sid_set:
            raise SchemaError(f"initial state {sid} is not declared")
    if doc.kind == "game" and len(doc.initial) != 1:
        raise SchemaError("games need exactly one initial state")
    if doc.acc_type not in ("buchi", "parity", "rabin", "streett"):
        raise SchemaError(f"unknown acceptance type {doc.acc_type!r}")
    if doc.acc_type in ("buchi", "parity"):
        seen = set()
        for k, acc in enumerate(doc.acc_sets):
            if not isinstance(acc, tuple) or _is_pair_set(acc):
                raise SchemaError(f"accSet {k}: plain stateID list expected")
            for sid in acc:
                if sid not in sid_set:
                    raise SchemaError(f"accSet {k} references unknown state {sid}")
                if doc.acc_type == "parity" and sid in seen:
                    raise SchemaError(f"parity accSets must be disjoint (state {sid})")
                seen.add(sid)
        if doc.acc_type == "buchi" and len(doc.acc_sets) != 1:
            raise SchemaError("buchi acceptance needs exactly one accSet")
        if doc.acc_type == "parity" and seen != sid_set:
            raise SchemaError("parity accSets must cover every state")
    else:
        for k, acc in enumerate(doc.acc_sets):
            if not _is_pair_set(acc):
                raise SchemaError(f"accSet {k}: exactly one E and one F block expected")
            for part in acc:
                for sid in part:
                    if sid not in sid_set:
                        raise SchemaError(f"accSet {k} references unknown state {sid}")


# ---------------------------------------------------------------------------
# label grammar


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[¬!~]|&&|&|∧)")


def parse_label(
    text: str, props: Sequence  # PropDecl or plain names
) -> frozenset[tuple[str, bool]]:
    """Parse a conjunction of literals; ``T``/``true`` is the empty set.

    Negation is written with any of the aliases (the XML form and the two
    ASCII forms) and conjunction likewise; every proposition must be
    declared and may appear at most once.
    """
    names = {p.name if isinstance(p, PropDecl) else p for p in props}
    stripped = text.strip()
    if stripped in ("T", "true"):
        return frozenset()
    tokens = []
    pos = 0
    while pos < len(stripped):
        m = _TOKEN.match(stripped, pos)
        if not m:
            raise LabelSyntaxError(f"bad label {text!r} at offset {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    literals = {}
    expect_literal = True
    negate = False
    for tok in tokens:
        if tok in ("¬", "!", "~"):
            if not expect_literal or negate:
                raise LabelSyntaxError(f"misplaced negation in {text!r}")
            negate = True
        elif tok in ("∧", "&", "&&"):
            if expect_literal:
                raise LabelSyntaxError(f"misplaced conjunction in {text!r}")
            expect_literal = True
        else:
            if not expect_literal:
                raise LabelSyntaxError(f"missing conjunction in {text!r}")
            if tok in ("T", "true"):
                raise LabelSyntaxError("T/true cannot be part of a conjunction")
            if tok not in names:
                raise UnknownProp(f"proposition {tok!r} is not declared")
            if tok in literals:
                raise DuplicateProp(f"proposition {tok!r} appears twice in {text!r}")
            literals[tok] = not negate
            negate = False
            expect_literal = False
    if expect_literal:
        raise LabelSyntaxError(f"label {text!r} ends in an operator")
    return frozenset(literals.items())


# ---------------------------------------------------------------------------
# XML reading


_NUMBER = re.compile(r"-?[0-9]+")
_XML_SPACE = " \t\r\n"  # the only whitespace XML knows


def _number(text: str, what: str) -> int:
    """The integer ``text`` writes in ASCII decimal digits, with an optional
    minus sign and XML whitespace around them; ``SchemaError`` for any
    other text, and for more digits than ``int()`` converts."""
    digits = text.strip(_XML_SPACE)
    if _NUMBER.fullmatch(digits):
        try:
            return int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise SchemaError(f"{what} must be numeric, got {text!r}")


def _text_of(elem):
    text = (elem.text or "").strip(_XML_SPACE)
    if not text:
        raise SchemaError(f"{elem.tag} must carry text")
    return text


def _int_of(elem):
    return _number(_text_of(elem), elem.tag)


def _id_of(elem, name):
    """The numeric ``name`` attribute of ``elem``, which must carry it."""
    value = elem.get(name)
    if value is None:
        raise SchemaError(f"<{elem.tag}> needs a {name} attribute")
    return _number(value, name)


def _state_ids(block) -> tuple[int, ...]:
    """The sorted ``<stateID>`` children of ``block``."""
    return tuple(sorted([_int_of(x) for x in block.findall("stateID")]))


# The layout ``write_structure`` gives an unlabelled game, as one pattern
# the whole text must match: ASCII digits, XML whitespace between the
# tags, attributes exactly as written, every repetition led by its own
# tag.  Once the text has matched, each element's pattern reads its fields
# from its section; in the layout its groups do not capture, which halves
# the time of the match.
_S = r"[ \t\r\n]*"
_STATE_ID = rf"<stateID>([0-9]+)</stateID>{_S}"
_STATE = rf'<state sid="([0-9]+)">{_S}<player>(0|1|-1)</player>{_S}</state>{_S}'
_TRANSITION = (
    rf'<transition tid="([0-9]+)">{_S}<from>([0-9]+)</from>{_S}<to>([0-9]+)</to>{_S}</transition>{_S}'
)
_ID, _ST, _TR = (p.replace("(", "(?:") for p in (_STATE_ID, _STATE, _TRANSITION))
_GAME_LAYOUT = re.compile(
    rf'<structure label-on="transition" type="game">{_S}<alphabet type="propositional"/>{_S}'
    rf"<stateSet>{_S}(?P<states>(?:{_ST})*)</stateSet>{_S}"
    rf"<transitionSet>{_S}(?P<transitions>(?:{_TR})*)</transitionSet>{_S}"
    rf"<initialStateSet>{_S}(?P<initial>(?:{_ID})*)</initialStateSet>{_S}"
    rf'<acc type="(?P<acc_type>buchi|parity|rabin|streett)">{_S}(?P<acc>(?:<accSet>{_S}'
    rf"(?:<E>{_S}(?:{_ID})*</E>{_S}<F>{_S}(?:{_ID})*</F>{_S}|(?:{_ID})*)</accSet>{_S})*)"
    rf"</acc>{_S}</structure>{_S}",
    re.ASCII,
)
_STATE_FIELDS = re.compile(_STATE, re.ASCII)
_TRANSITION_FIELDS = re.compile(_TRANSITION, re.ASCII)
_STATE_ID_FIELDS = re.compile(_STATE_ID, re.ASCII)
_ACC_SET_BODY = re.compile(r"<accSet>(.*?)</accSet>", re.ASCII | re.DOTALL)


def _scan_game(text: Union[str, bytes]) -> Optional[StructureDocument]:
    """The document of a text in the layout of an unlabelled game as
    ``write_structure`` writes it, read without building an element tree;
    ``None`` for any other text, which is left to the XML parser.  Where it
    reads a document, the XML parser reads an equal one or raises the same
    error: both hand the same columns to ``structure_document``."""
    if not isinstance(text, str) or (m := _GAME_LAYOUT.fullmatch(text)) is None:
        return None

    def ids(*where):
        return tuple(sorted(map(int, _STATE_ID_FIELDS.findall(*where))))

    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        states = [
            StateDecl(int(sid), _PLAYER_TAGS[tag])
            for sid, tag in _STATE_FIELDS.findall(text, *m.span("states"))
        ]
        fields = _TRANSITION_FIELDS.findall(text, *m.span("transitions"))
        numbers = list(map(int, chain.from_iterable(fields)))
        transitions = list(map(TransitionDecl, numbers[0::3], numbers[1::3], numbers[2::3]))
        initial = ids(text, *m.span("initial"))
        acc_sets = []
        for body in _ACC_SET_BODY.findall(text, *m.span("acc")):
            if "<F>" in body:
                e, f = body.split("<F>")
                acc_sets.append((ids(e), ids(f)))
            else:
                acc_sets.append(ids(body))
    except ValueError:
        return None
    return structure_document(
        "game", (), states, transitions, initial, m.group("acc_type"), acc_sets
    )


def parse_structure(text: Union[str, bytes]) -> StructureDocument:
    """Parse a structure file; positions are reported for XML errors.

    An unlabelled game in the writer's layout is read by ``_scan_game``;
    every other text by the XML parser, with the same result and the same
    diagnostics.
    """
    doc = _scan_game(text)
    return _read_tree(text) if doc is None else doc


def _read_tree(text: Union[str, bytes]) -> StructureDocument:
    """Parse a structure file with the XML parser.

    One walk reads each element and checks it as it is met, so a malformed
    file reports its first fault in document order.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        raise StructureSyntaxError(ErrorString(exc.code), line, column) from None
    except UnicodeEncodeError as exc:  # a str holding a lone surrogate
        raise StructureSyntaxError(f"not encodable as UTF-8: {exc.reason}") from None
    if root.tag != "structure":
        raise SchemaError(f"root element must be <structure>, got <{root.tag}>")
    kind = root.get("type")
    if kind is None:
        raise SchemaError("<structure> needs a type attribute")
    props = []
    alphabet = root.find("alphabet")
    if alphabet is not None:
        for prop in alphabet.findall("prop"):
            props.append(PropDecl(_text_of(prop), prop.get("type") or ""))
    state_set = root.find("stateSet")
    if state_set is None:
        raise SchemaError("missing <stateSet>")
    states = []
    for st in state_set.findall("state"):
        sid = _id_of(st, "sid")
        player = st.find("player")
        if player is not None:
            tag = _text_of(player)
            player = _PLAYER_TAGS.get(tag)
            if player is None:
                raise SchemaError(f"state {sid}: player must be 0, 1 or -1, got {tag!r}")
        states.append(StateDecl(sid, player, st.findtext("label")))
    trans_set = root.find("transitionSet")
    transitions = []
    for tr in [] if trans_set is None else trans_set.findall("transition"):
        tid = _id_of(tr, "tid")
        src, dst = tr.find("from"), tr.find("to")
        if src is None or dst is None:
            raise SchemaError(f"transition {tid} needs <from> and <to>")
        read = (tr.findtext("read") or "").strip() or None
        transitions.append(TransitionDecl(tid, _int_of(src), _int_of(dst), read))
    init_set = root.find("initialStateSet")
    initial = () if init_set is None else _state_ids(init_set)
    acc = root.find("acc")
    if acc is None:
        raise SchemaError("missing <acc> block")
    acc_type = acc.get("type")
    acc_sets = []
    for acc_set in acc.findall("accSet"):
        e_el, f_el = acc_set.find("E"), acc_set.find("F")
        if e_el is not None or f_el is not None:
            if e_el is None or f_el is None:
                raise SchemaError("accSet needs both an E and an F block")
            acc_sets.append((_state_ids(e_el), _state_ids(f_el)))
        else:
            acc_sets.append(_state_ids(acc_set))
    return structure_document(
        kind, props, states, transitions, initial, acc_type or "", acc_sets
    )


# ---------------------------------------------------------------------------
# XML writing (canonical)


# Characters XML 1.0 cannot hold, not even as character references.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xml_text(text: str, what: str) -> str:
    """``text`` as character data that reads back as ``text``: markup
    characters escaped and ``\\r`` as a reference, which the reader's newline
    normalization leaves alone.  ``SchemaError`` names ``what`` when ``text``
    holds a character XML 1.0 cannot hold."""
    bad = _NOT_XML.search(text)
    if bad:
        raise SchemaError(f"{what} holds U+{ord(bad.group()):04X}, which XML 1.0 cannot hold")
    return escape(text, {"\r": "&#13;"})


def write_structure(doc: StructureDocument) -> str:
    """Canonical serialization: a fixed point of parse-then-write."""
    _check_schema(doc)
    out = []
    put = out.append
    put(f'<structure label-on="transition" type="{doc.kind}">\n')
    if doc.props:
        put('  <alphabet type="propositional">\n')
        for p in doc.props:
            put(f'    <prop type="{p.kind}">{_xml_text(p.name, f"prop {p.name!r}")}</prop>\n')
        put("  </alphabet>\n")
    else:
        put('  <alphabet type="propositional"/>\n')
    put("  <stateSet>\n")
    for s in sorted(doc.states, key=lambda s: s.sid):
        put(f'    <state sid="{s.sid}">\n')
        if s.player is not None:
            put(f"      <player>{_TAG_OF_OWNER[s.player]}</player>\n")
        if s.label is not None:
            put(f"      <label>{_xml_text(s.label, f'state {s.sid}: label')}</label>\n")
        put("    </state>\n")
    put("  </stateSet>\n")
    put("  <transitionSet>\n")
    for t in sorted(doc.transitions, key=lambda t: t.tid):
        put(f'    <transition tid="{t.tid}">\n')
        put(f"      <from>{t.src}</from>\n")
        put(f"      <to>{t.dst}</to>\n")
        if t.read is not None:
            put(f"      <read>{_xml_text(t.read, f'transition {t.tid}: read symbol')}</read>\n")
        put("    </transition>\n")
    put("  </transitionSet>\n")
    put("  <initialStateSet>\n")
    for sid in sorted(doc.initial):
        put(f"    <stateID>{sid}</stateID>\n")
    put("  </initialStateSet>\n")
    put(f'  <acc type="{doc.acc_type}">\n')
    for acc in doc.acc_sets:
        put("    <accSet>\n")
        if _is_pair_set(acc):
            e, f = acc
            put("      <E>\n")
            for sid in e:
                put(f"        <stateID>{sid}</stateID>\n")
            put("      </E>\n")
            put("      <F>\n")
            for sid in f:
                put(f"        <stateID>{sid}</stateID>\n")
            put("      </F>\n")
        else:
            for sid in acc:
                put(f"      <stateID>{sid}</stateID>\n")
        put("    </accSet>\n")
    put("  </acc>\n")
    put("</structure>\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# conversions between documents and in-memory objects


def _encode_objective(obj: Objective, n: int) -> tuple[str, list]:
    """Acceptance type and accSets of an objective over states 0..n-1:
    one plain set per parity value, one (E, F) block per pair.  A parity
    objective needing more than ``2 * n + 64`` accSets (sparse, huge
    priorities) raises ``TooLarge`` before any set is allocated."""
    if isinstance(obj, Parity):
        bound = 2 * n + 64
        if obj.max_priority >= bound:
            raise TooLarge(
                f"priority {obj.max_priority} needs {obj.max_priority + 1} accSets, "
                f"more than {bound} (2 per state plus 64) for {n} states"
            )
        acc_sets = [[] for _ in range(obj.max_priority + 1)]
        for s in range(n):
            acc_sets[obj.priorities[s]].append(s)
        return "parity", [tuple(acc) for acc in acc_sets]
    acc_sets = [(tuple(sorted(q)), tuple(sorted(r))) for q, r in obj.pairs]
    return ("streett" if isinstance(obj, Streett) else "rabin"), acc_sets


def _decode_objective(doc: StructureDocument, rank: dict[int, int] | range) -> Objective:
    """Objective of a document's accSets, states renumbered by ``rank``;
    Buchi acceptance becomes the two-priority parity encoding."""
    if doc.acc_type == "parity":
        prio = [0] * len(rank)
        for k, acc in enumerate(doc.acc_sets):
            for sid in acc:
                prio[rank[sid]] = k
        return Parity(tuple(prio))
    if doc.acc_type == "buchi":
        return buchi_parity({rank[sid] for sid in doc.acc_sets[0]}, len(rank))
    pairs = [({rank[s] for s in e}, {rank[s] for s in f}) for e, f in doc.acc_sets]
    return Streett(pairs) if doc.acc_type == "streett" else Rabin(pairs)


def game_to_document(g: GameGraph, obj: Objective) -> StructureDocument:
    """Serialize a game with its objective.

    Weights are not part of the format: probabilistic states round-trip
    with uniform distributions, which is sound for qualitative analysis.
    """
    if g.initial is None:
        raise SchemaError("game documents need an initial state")
    check_objective(g, obj, Objective)
    states = [
        StateDecl(s, g.owners[s], g.label(s)) for s in range(g.n)
    ]
    transitions = []
    tid = 0
    for s in range(g.n):
        for t in g.succ[s]:
            transitions.append(TransitionDecl(tid, s, t, None))
            tid += 1
    acc_type, acc_sets = _encode_objective(obj, g.n)
    return structure_document(
        "game", (), states, transitions, [g.initial], acc_type, acc_sets
    )


def document_to_game(doc: StructureDocument) -> tuple[GameGraph, Objective]:
    """Game plus objective from a game document.

    State indices are the rank of the sid; Buchi acceptance is converted
    into the two-priority parity encoding.  Raises ``InvalidGame`` when
    the game breaks a rule of ``validate_game``.
    """
    if doc.kind != "game":
        raise SchemaError(f"expected a game document, got type {doc.kind!r}")
    sids = list(map(itemgetter(0), doc.states))
    succ = [[] for _ in sids]
    # transitions are already tid-ordered
    if sids == list(range(len(sids))):  # as written by game_to_document
        rank = range(len(sids))
        for t in doc.transitions:
            succ[t.src].append(t.dst)
    else:
        rank = {sid: k for k, sid in enumerate(sids)}
        for t in doc.transitions:
            succ[rank[t.src]].append(rank[t.dst])
    states = [
        (s.player, succ[k], s.label) for k, s in enumerate(doc.states)
    ]
    game = build_game(states, initial=rank[doc.initial[0]])
    return game, _decode_objective(doc, rank)


def _alphabet_of(doc: StructureDocument) -> PropAlphabet:
    return PropAlphabet(
        inputs=tuple(p.name for p in doc.props if p.kind == "input"),
        outputs=tuple(p.name for p in doc.props if p.kind == "output"),
    )


def _letters_matching(alpha: PropAlphabet, literals) -> list[int]:
    by_name = dict(literals)
    out = []
    for letter in range(alpha.n_letters):
        vals = dict(alpha.literals(letter))
        if all(vals[name] == v for name, v in by_name.items()):
            out.append(letter)
    return out


def _fa_table(doc: StructureDocument, acc_type: str):
    """Alphabet, state ranks and (state, letter) -> target table of an fa
    document with ``acc_type`` acceptance.  Each transition is expanded over
    the full letters it matches; a (state, letter) covered twice with
    different targets is rejected as nondeterminism."""
    if doc.kind != "fa":
        raise SchemaError(f"expected an fa document, got type {doc.kind!r}")
    if doc.acc_type != acc_type:
        raise SchemaError(f"{acc_type} acceptance expected, got {doc.acc_type!r}")
    if len(doc.initial) != 1:
        raise SchemaError("a deterministic automaton needs exactly one initial state")
    alpha = _alphabet_of(doc)
    rank = {s.sid: k for k, s in enumerate(doc.states)}
    table = {}
    for t in doc.transitions:
        literals = parse_label(t.read, doc.props)
        for letter in _letters_matching(alpha, literals):
            key = (rank[t.src], letter)
            if key in table and table[key] != rank[t.dst]:
                raise SchemaError(
                    f"state {t.src} is nondeterministic on {alpha.format_letter(letter)}"
                )
            table[key] = rank[t.dst]
    return alpha, rank, table


def _fa_document(aut, obj: Objective) -> StructureDocument:
    """fa document of a complete deterministic automaton with acceptance
    ``obj``: one transition per (state, full letter), numbered in that order."""
    alpha = aut.alphabet
    props = [PropDecl(p, "input") for p in alpha.inputs] + [
        PropDecl(p, "output") for p in alpha.outputs
    ]
    states = [
        StateDecl(q, None, aut.labels[q] if aut.labels else None) for q in range(aut.n)
    ]
    reads = [alpha.format_letter(letter) for letter in range(alpha.n_letters)]
    transitions = [
        TransitionDecl(q * alpha.n_letters + letter, q, aut.delta[q][letter], read)
        for q in range(aut.n)
        for letter, read in enumerate(reads)
    ]
    acc_type, acc_sets = _encode_objective(obj, aut.n)
    return structure_document(
        "fa", props, states, transitions, [aut.initial], acc_type, acc_sets
    )


def dpa_from_document(doc: StructureDocument, complete: bool = False) -> DetParityAutomaton:
    """Deterministic parity automaton from an fa document.  A (state, letter)
    no transition covers raises ``IncompleteAutomaton`` unless ``complete``
    adds the rejecting sink."""
    alpha, rank, table = _fa_table(doc, "parity")
    prio = _decode_objective(doc, rank).priorities
    labels = tuple(s.label for s in doc.states)
    return DetParityAutomaton.from_table(
        alpha, len(rank), rank[doc.initial[0]], prio, table, complete=complete, labels=labels
    )


def dpa_to_document(aut: DetParityAutomaton) -> StructureDocument:
    return _fa_document(aut, Parity(aut.priorities))


def streett_automaton_from_document(doc: StructureDocument) -> StreettAutomaton:
    """Deterministic, complete Streett automaton from an fa document."""
    alpha, rank, table = _fa_table(doc, "streett")
    n = len(rank)
    return StreettAutomaton(
        alphabet=alpha,
        n=n,
        initial=rank[doc.initial[0]],
        delta=delta_from_table(alpha, n, table),
        pairs=_decode_objective(doc, rank).pairs,
        labels=tuple(s.label for s in doc.states),
    )


def streett_automaton_to_document(sa: StreettAutomaton) -> StructureDocument:
    return _fa_document(sa, Streett(sa.pairs))
