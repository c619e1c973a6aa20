"""The interactive console: variables, statements, object actions.

Statements follow the prompt grammar: a bare variable prints its value,
``$x = $y`` copies a binding, ``$x = <Object> <action> ...`` evaluates an
action.  Expressions may also start from a bound variable, and a bare
expression evaluates and prints without binding.  Variables are ``$`` plus
letters/digits; sessions are replayable because every action is
deterministic.
"""
from __future__ import annotations

import re
import shlex
from dataclasses import dataclass, field
from typing import Mapping

from . import structio
from .errors import ConsoleParseError, TypeMismatch, UnboundVariable
from .graph import GameGraph
from .objectives import Parity, Rabin, Streett, pair_count
from .reductions import reduction_chain
from .solve import almost_sure_solve, cooperative_region
from .synthesis import SynthesisGame, check_realizability, check_sufficiency, dpa_to_synthesis_game

_VARIABLE = re.compile(r"^\$[a-zA-Z0-9]*$")

OBJECT_KINDS = (
    "LTL",
    "BuchiAutomaton",
    "ParityAutomaton",
    "SynthesisGame",
    "StreettAutomaton",
    "ParityGame",
    "RabinGame",
    "StreettGame",
)

_GAME_KINDS = ("ParityGame", "RabinGame", "StreettGame", "SynthesisGame")


@dataclass(frozen=True)
class Value:
    """A console object: its declared kind plus the payload."""

    kind: str
    payload: object

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class ConsoleState:
    bindings: Mapping[str, Value] = field(default_factory=dict)

    def bind(self, name: str, value: Value) -> "ConsoleState":
        new = dict(self.bindings)
        new[name] = value
        return ConsoleState(new)

    def lookup(self, name: str) -> Value:
        if name not in self.bindings:
            raise UnboundVariable(f"variable {name} is not bound")
        return self.bindings[name]


def render(value: Value) -> str:
    kind, payload = value.kind, value.payload
    if kind in ("ParityGame", "RabinGame", "StreettGame"):
        game, obj = payload
        return f"{kind}[{game}; {obj}]"
    if kind == "SynthesisGame":
        return f"SynthesisGame[{payload.graph}; {payload.parity}]"
    if kind == "ParityAutomaton":
        return (
            f"ParityAutomaton[{payload.n} states, "
            f"{len(payload.alphabet.inputs)} input / {len(payload.alphabet.outputs)} output props]"
        )
    if kind == "StreettAutomaton":
        return f"StreettAutomaton[{payload.n} states, {pair_count(len(payload.pairs))}]"
    if kind == "BuchiAutomaton":
        return f"BuchiAutomaton[{len(payload.states)} states]"
    if kind == "LTL":
        return f"LTL[{payload}]"
    if kind == "Bool":
        return "true" if payload else "false"
    return str(payload)


def _game_of(value: Value) -> tuple[GameGraph, object]:
    if value.kind in ("ParityGame", "RabinGame", "StreettGame"):
        return value.payload
    if value.kind == "SynthesisGame":
        return value.payload.graph, value.payload.parity
    raise TypeMismatch(f"{value.kind} is not a game object")


_HELP = {
    "LTL": [
        ("readFile <file>", "load a formula from a text file"),
        ("writeFile <file>", "store the formula"),
        ("toBuchiAutomaton", "unsupported: provide a deterministic parity automaton"),
        ("help", "this list"),
    ],
    "BuchiAutomaton": [
        ("readFile <file>", "load a Buchi automaton structure file"),
        ("writeFile <file>", "store the automaton"),
        ("toParityAutomaton", "unsupported: provide a deterministic parity automaton"),
        ("help", "this list"),
    ],
    "ParityAutomaton": [
        ("readFile <file>", "load a deterministic parity automaton (fa structure file)"),
        ("writeFile <file>", "store the automaton"),
        ("toSynthesisGame", "split into the synthesis game"),
        ("help", "this list"),
    ],
    "StreettAutomaton": [
        ("readFile <file>", "load a Streett automaton (fa structure file)"),
        ("writeFile <file>", "store the automaton"),
        ("help", "this list"),
    ],
}

_GAME_HELP = [
    ("readFile <file>", "load a game structure file"),
    ("writeFile <file>", "store the game"),
    ("winningRegion <0|1>", "states won with probability 1 by the player"),
    ("winningStrategy <0|1>", "a witness strategy for the player"),
    ("cooperativeWinningRegion", "states with some satisfying path (2-player only)"),
    ("toDeterministicGame", "2-player parity game preserving almost-sure winning"),
    ("help", "this list"),
]

_SYNTH_HELP = [
    ("realizable", "whether the system wins from the initial state"),
    ("safetyAssumption", "minimal forbidden-environment-edge assumption"),
    ("fairnessAssumption", "safety plus locally minimal fair-edge assumption"),
    ("assumptionAutomaton", "the combined assumption as a Streett automaton"),
    ("transducer", "a system implementing the specification under the assumption"),
    ("sufficient <$assumption>", "whether a bound assumption suffices"),
]


# console action -> (result kind, ``Repair`` field)
_REPAIR_STAGES = {
    "safetyAssumption": ("Assumption", "safety"),
    "fairnessAssumption": ("Assumption", "assumption"),
    "assumptionAutomaton": ("StreettAutomaton", "automaton"),
    "transducer": ("Transducer", "transducer"),
}


def _help_text(kind: str) -> str:
    rows = list(_HELP.get(kind, _GAME_HELP if kind in _GAME_KINDS else [("help", "this list")]))
    if kind == "SynthesisGame":
        rows = _GAME_HELP[:-1] + _SYNTH_HELP + [_GAME_HELP[-1]]
    lines = [f"actions for {kind}:"]
    for action, what in rows:
        lines.append(f"  {action:28} {what}")
    return "\n".join(lines)


def _read_file(kind: str, path: str) -> Value:
    text = structio.read_text(path)
    if kind == "LTL":
        return Value("LTL", text.strip())
    doc = structio.parse_structure(text)
    if kind == "BuchiAutomaton":
        if doc.kind != "fa" or doc.acc_type != "buchi":
            raise TypeMismatch(f"{path} does not hold a Buchi automaton")
        return Value("BuchiAutomaton", doc)
    if kind == "ParityAutomaton":
        return Value("ParityAutomaton", structio.dpa_from_document(doc))
    if kind == "SynthesisGame":
        return Value("SynthesisGame", dpa_to_synthesis_game(structio.dpa_from_document(doc)))
    if kind == "StreettAutomaton":
        return Value("StreettAutomaton", structio.streett_automaton_from_document(doc))
    game, obj = structio.document_to_game(doc)
    expected = {"ParityGame": Parity, "RabinGame": Rabin, "StreettGame": Streett}[kind]
    if not isinstance(obj, expected):
        raise TypeMismatch(
            f"{path} holds a {type(obj).__name__.lower()} objective, not a {kind}"
        )
    return Value(kind, (game, obj))


def _write_file(value: Value, path: str) -> str:
    kind, payload = value.kind, value.payload
    if kind == "LTL":
        structio.write_text(path, payload + "\n")
        return f"wrote {path}"
    if kind == "BuchiAutomaton":
        doc = payload
    elif kind == "ParityAutomaton":
        doc = structio.dpa_to_document(payload)
    elif kind == "StreettAutomaton":
        doc = structio.streett_automaton_to_document(payload)
    elif kind == "SynthesisGame":
        doc = structio.game_to_document(payload.graph, payload.parity)
    elif kind in ("ParityGame", "RabinGame", "StreettGame"):
        doc = structio.game_to_document(*payload)
    else:
        raise TypeMismatch(f"{kind} objects cannot be written to files")
    structio.write_text(path, structio.write_structure(doc))
    return f"wrote {path}"


def _player_arg(args):
    if len(args) != 1 or args[0] not in ("0", "1"):
        raise ConsoleParseError("expected a player argument: 0 or 1")
    return int(args[0])


def _to_deterministic(value: Value) -> Value:
    red = reduction_chain(*_game_of(value))[-1]
    return Value("ParityGame", (red.game, red.parity))


def _coop(value: Value):
    game, obj = _game_of(value)
    if not game.is_two_player:
        raise TypeMismatch(
            "cooperativeWinningRegion applies to 2-player games; "
            "reduce with toDeterministicGame first"
        )
    return Value("Region", cooperative_region(game, obj))


def _apply_action(state: ConsoleState, value: Value, action: str, args) -> Value:
    kind = value.kind
    if action == "help":
        return Value("Text", _help_text(kind))
    if action == "writeFile":
        if len(args) != 1:
            raise ConsoleParseError("writeFile needs a file name")
        return Value("Text", _write_file(value, args[0]))
    if kind in _GAME_KINDS:
        game, obj = _game_of(value)
        if action == "winningRegion":
            region, _ = almost_sure_solve(game, obj, _player_arg(args))
            return Value("Region", region)
        if action == "winningStrategy":
            _, strategy = almost_sure_solve(game, obj, _player_arg(args))
            return Value("Strategy", strategy)
        if action == "cooperativeWinningRegion":
            return _coop(value)
        if action == "toDeterministicGame":
            return _to_deterministic(value)
    if kind == "ParityAutomaton" and action == "toSynthesisGame":
        return Value("SynthesisGame", dpa_to_synthesis_game(value.payload))
    if kind == "SynthesisGame":
        sg: SynthesisGame = value.payload
        if action == "realizable":
            ok, _ = check_realizability(sg)
            return Value("Bool", ok)
        if action in _REPAIR_STAGES:
            kind, stage = _REPAIR_STAGES[action]
            return Value(kind, getattr(sg.repair, stage))
        if action == "sufficient":
            if len(args) != 1 or not _VARIABLE.match(args[0]):
                raise ConsoleParseError("sufficient needs an assumption variable")
            asm_value = state.lookup(args[0])
            if asm_value.kind != "Assumption":
                raise TypeMismatch(f"{args[0]} is not an assumption")
            return Value("Bool", check_sufficiency(sg, asm_value.payload))
    if kind in ("LTL", "BuchiAutomaton") and action in (
        "toBuchiAutomaton",
        "toParityAutomaton",
        "toSynthesisGame",
    ):
        raise TypeMismatch(
            "unsupported: provide a deterministic parity automaton "
            "(translation is delegated to external tools)"
        )
    raise TypeMismatch(f"action {action!r} is not available on {kind}")


def _eval_expression(state: ConsoleState, tokens) -> Value:
    head = tokens[0]
    if _VARIABLE.match(head):
        value = state.lookup(head)
        rest = tokens[1:]
        if not rest:
            return value
        return _apply_action(state, value, rest[0], rest[1:])
    if head in OBJECT_KINDS:
        if len(tokens) < 2:
            raise ConsoleParseError(f"{head} needs an action (try: {head} help)")
        action, args = tokens[1], tokens[2:]
        if action == "help":
            return Value("Text", _help_text(head))
        if action == "readFile":
            if len(args) != 1:
                raise ConsoleParseError("readFile needs a file name")
            return _read_file(head, args[0])
        raise TypeMismatch(
            f"action {action!r} needs an object; load one first with {head} readFile <file>"
        )
    raise ConsoleParseError(
        f"expected a variable or one of {', '.join(OBJECT_KINDS)}, got {head!r}"
    )


def eval_statement(state: ConsoleState, line: str) -> tuple[ConsoleState, str]:
    """Evaluate one console statement; returns the new state and the text
    printed for it (empty for silent statements)."""
    try:
        tokens = shlex.split(line, comments=False, posix=True)
    except ValueError as exc:
        raise ConsoleParseError(f"bad statement: {exc}") from None
    if not tokens:
        return state, ""
    if len(tokens) >= 2 and tokens[1] == "=":
        target = tokens[0]
        if not _VARIABLE.match(target):
            raise ConsoleParseError(f"assignment target {target!r} is not a variable")
        rhs = tokens[2:]
        if not rhs:
            raise ConsoleParseError("assignment needs a right-hand side")
        if len(rhs) == 1 and _VARIABLE.match(rhs[0]):
            return state.bind(target, state.lookup(rhs[0])), ""
        value = _eval_expression(state, rhs)
        return state.bind(target, value), render(value)
    if len(tokens) == 1 and _VARIABLE.match(tokens[0]):
        return state, render(state.lookup(tokens[0]))
    value = _eval_expression(state, tokens)
    return state, render(value)
