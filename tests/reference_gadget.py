"""The reference gadget: the stochastic-parity gadget with arms up to E*,
the game's largest even-rounded priority, at every probabilistic state.

``reduce_stochastic_parity`` gives each probabilistic state only the arms
up to its own even-rounded priority.  This copy keeps the wider gadget,
whose region for player 0 is the same, so the kernel digest keeps hashing
the games it always hashed and the differential test has an independent
reduction to compare against.
"""
from omegagames.graph import PLAYER0, PLAYER1, GameGraph
from omegagames.objectives import Parity
from omegagames.reductions import even_ceiling


def global_gadget(g: GameGraph, obj: Parity) -> tuple[GameGraph, Parity]:
    """2-player parity game with player 0's almost-sure region of ``g`` on
    its copies below ``g.n``: every probabilistic state announces one of
    the even values 0..E*, each arm a decide state (player 1, priority
    E* + 2) choosing accept (player 1, priority e) or challenge (player 0,
    priority e + 1)."""
    if g.is_two_player:
        return g, obj
    estar = even_ceiling(obj.max_priority)
    neutral = estar + 2
    owners = list(g.owners)
    succ = list(g.succ)
    prios = list(obj.priorities)
    for s in g.probabilistic_states:
        support = g.support(s)
        first = len(owners)
        for e in range(0, estar + 1, 2):
            decide = len(owners)
            owners += (PLAYER1, PLAYER1, PLAYER0)
            succ += ((decide + 1, decide + 2), support, support)
            prios += (neutral, e, e + 1)
        owners[s] = PLAYER0
        succ[s] = tuple(range(first, len(owners), 3))
    labels = (g.labels or (None,) * g.n) + (None,) * (len(owners) - g.n)
    return GameGraph(tuple(owners), tuple(succ), {}, labels, g.initial), Parity(tuple(prios))
