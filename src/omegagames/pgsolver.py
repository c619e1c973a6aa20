"""PGSolver text-format interop for 2-player parity games.

PGSolver games are max-parity (player 0 wins when the maximum recurring
priority is even), so priorities are flipped through p' = E* - p with E*
the smallest even number at or above the maximum priority; the flip is a
winner-preserving involution up to an even shift.  Lines follow the public
format::

    parity <max node id>;
    <id> <priority> <owner> <succ>,<succ>[,...] ["<label>"];
"""
from __future__ import annotations

import re

from .errors import NotDeterministicGame, SchemaError, StructureSyntaxError, TypeMismatch
from .graph import GameGraph, build_game, check_objective
from .objectives import Parity
from .reductions import even_ceiling


def flip_priorities(priorities) -> tuple[list[int], int]:
    """Min-even <-> max-even flip; returns the flipped values and E*."""
    estar = even_ceiling(max(priorities, default=0))
    return [estar - p for p in priorities], estar


def export_pgsolver(g: GameGraph, obj: Parity) -> str:
    """Serialize a 2-player parity game for max-parity solvers.

    Raises ``SchemaError`` for a label the format cannot hold: one with a
    double quote or a line break.
    """
    if not g.is_two_player:
        raise NotDeterministicGame("PGSolver export needs a game without probabilistic states")
    if not isinstance(obj, Parity):
        raise TypeMismatch(
            f"PGSolver export needs a parity objective, got a {obj}; "
            "turn the game into a parity game with `omegagames reduce` first"
        )
    check_objective(g, obj, Parity)
    flipped, _ = flip_priorities(obj.priorities)
    lines = [f"parity {g.n - 1};"]
    for s in range(g.n):
        succ = ",".join(str(t) for t in g.succ[s])
        line = f"{s} {flipped[s]} {g.owners[s]} {succ}"
        label = g.label(s)
        if label is not None:
            # the label sits between quotes on one line of the file
            if '"' in label or len(f"{label}.".splitlines()) > 1:
                raise SchemaError(f"label of state {s} holds a quote or a line break: {label!r}")
            line += f' "{label}"'
        lines.append(line + ";")
    return "\n".join(lines) + "\n"


# Fields are ASCII digits separated by spaces and tabs only.
_LINE = re.compile(
    r"^(?P<id>[0-9]+)[ \t]+(?P<prio>[0-9]+)[ \t]+(?P<owner>[01])[ \t]+"
    r"(?P<succ>[0-9]+(?:[ \t]*,[ \t]*[0-9]+)*)"
    r'(?:[ \t]+"(?P<label>[^"]*)")?[ \t]*;?$'
)
_HEADER = re.compile(r"parity[ \t]+[0-9]+[ \t]*;?")
_COMMA = re.compile(r"[ \t]*,[ \t]*")


def import_pgsolver(text: str) -> tuple[GameGraph, Parity]:
    """Parse PGSolver text; the identity flip maps priorities back to min-even.

    The format carries no initial state, so the imported game has none.
    """
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip(" \t")
        if not line:
            continue
        if line.startswith("parity"):
            if not _HEADER.fullmatch(line):
                raise StructureSyntaxError("malformed parity header", lineno)
            continue
        m = _LINE.match(line)
        if not m:
            raise StructureSyntaxError(f"malformed node line {line!r}", lineno)
        node = int(m.group("id"))
        if node in entries:
            raise StructureSyntaxError(f"node {node} declared twice", lineno)
        succ = [int(t) for t in _COMMA.split(m.group("succ"))]
        entries[node] = (int(m.group("prio")), int(m.group("owner")), succ, m.group("label"))
    if not entries:
        raise StructureSyntaxError("no nodes in file", 1)
    ids = sorted(entries)
    if ids != list(range(len(ids))):
        raise StructureSyntaxError(f"node ids must be dense 0..{len(ids) - 1}", 1)
    game = build_game([entries[s][1:] for s in ids])  # (owner, successors, label)
    flipped_back, _ = flip_priorities([entries[s][0] for s in ids])
    return game, Parity(tuple(flipped_back))
