"""Reductions between game classes.

* stochastic parity -> 2-player parity, via an announce/accept/challenge
  gadget replacing each probabilistic state;
* Rabin/Streett -> parity, via an index-appearance-record product over
  the pair indices (works for 2- and 2.5-player games alike, since the
  record is deterministic memory);
* the dual game (owners swapped, objective complemented) used to solve for
  player 1 with the player-0 pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .errors import UndefinedOnRegion
from .graph import PLAYER0, PLAYER1, PROBABILISTIC, GameGraph, check_objective, explore
from .objectives import Objective, Parity, Rabin, Streett, complement
from .strategies import Strategy


@dataclass(frozen=True)
class ReductionResult:
    """A reduced game plus the bookkeeping to map answers back.

    Every reduction keeps the original states at indices 0..n-1 of the
    reduced game (n = ``source.n``): reduced state ``s < n`` is the copy of
    original state ``s``, and the states above are gadget or product states.
    Record products also carry, per product state, the original state it
    projects to (``origin_map``) and its record (``memory_map``); below n
    these are ``s`` itself and the initial record.
    """

    source: GameGraph
    game: GameGraph
    parity: Parity
    origin_map: Optional[tuple[int, ...]] = None
    memory_map: Optional[tuple[tuple, ...]] = None
    kind: str = "identity"

    def lift(self, states: Iterable[int]) -> frozenset[int]:
        """The original states whose copies are in ``states``."""
        n = self.source.n
        return frozenset(s for s in states if s < n)


def even_ceiling(value: int) -> int:
    """Smallest even number >= value."""
    return value if value % 2 == 0 else value + 1


def reduce_stochastic_parity(g: GameGraph, obj: Parity) -> ReductionResult:
    """2-player parity game preserving player 0's almost-sure region.

    Each probabilistic state ``s`` becomes an announcement state (player 0,
    priority of ``s``) from which an even value e <= even_ceiling(p(s)) is
    claimed as the recurring minimum.  Player 1 then either accepts the
    claim (priority e, player 1 picks the successor) or challenges it
    (priority e+1, player 0 must pick).  Every pass through the gadget
    visits ``s`` itself, so a higher claim could not lower the least
    recurring priority: it would repeat the top arm kept.  The state gets
    ``even_ceiling(p(s)) // 2 + 1`` arms of three states each.
    Deterministic states keep their rows (the same tuples); announcement
    states reuse the index of the state they replace, so copies of original
    states are exactly the indices below ``g.n``.
    """
    check_objective(g, obj, Parity)
    if g.is_two_player:
        return ReductionResult(g, g, obj)
    neutral = even_ceiling(obj.max_priority) + 2
    owners = list(g.owners)
    succ = list(g.succ)
    prios = list(obj.priorities)
    for s in g.probabilistic_states:
        support = g.support(s)
        first = len(owners)
        for e in range(0, even_ceiling(prios[s]) + 1, 2):
            decide = len(owners)
            # decide, accept (adversary moves), challenge (announcer moves)
            owners += (PLAYER1, PLAYER1, PLAYER0)
            succ += ((decide + 1, decide + 2), support, support)
            prios += (neutral, e, e + 1)
        owners[s] = PLAYER0  # announcement: one edge per decide state
        succ[s] = tuple(range(first, len(owners), 3))
    labels = (g.labels or (None,) * g.n) + (None,) * (len(owners) - g.n)
    reduced = GameGraph(tuple(owners), tuple(succ), {}, labels, g.initial)
    return ReductionResult(g, reduced, Parity(tuple(prios)), kind="gadget")


def priority_ranks(obj: Parity) -> Parity:
    """The same objective on the least priorities that keep it: distinct
    values in increasing order get ranks that keep their parity, and a
    value takes its predecessor's rank when the two share a parity (the
    compression of Friedmann and Lange, "Solving parity games in
    practice", ATVA 2009).  The least recurring rank is the rank of the
    least recurring value, so every play keeps its winner.  ``obj`` itself
    is returned when the ranks equal the values: its values are
    consecutive and start at 0 or 1."""
    values = set(obj.priorities)
    if not values or (min(values) <= 1 and max(values) - min(values) < len(values)):
        return obj
    rank = {}
    r = -1
    for v in sorted(values):
        if r < 0:
            r = v % 2
        elif (v - r) % 2:
            r += 1
        rank[v] = r
    return Parity(tuple(map(rank.__getitem__, obj.priorities)))


def dual_game(g: GameGraph, obj: Objective) -> tuple[GameGraph, Objective]:
    """Owners swapped and the objective, of any class, complemented: player
    1's almost-sure region in ``g`` is player 0's in the dual."""
    check_objective(g, obj, Objective)
    swap = {PLAYER0: PLAYER1, PLAYER1: PLAYER0, PROBABILISTIC: PROBABILISTIC}
    return replace(g, owners=tuple(swap[o] for o in g.owners)), complement(obj)


def lar_reduce(g: GameGraph, obj: Streett | Rabin) -> ReductionResult:
    """Parity game from a Rabin/Streett game via an index appearance record.

    The record is a permutation of the pair indices ``0..k-1``.  Visiting a
    state moves the indices of the pairs whose R contains it to the front,
    in their old relative order.  With 1-based positions in the old record,
    let f be the last position of such an index and e the last position of
    an index whose Q contains the state (0 when there is none); the visit
    emits 2e if e > f, else 2f+1, plus 1 for Streett.  The indices whose R
    recurs hold the front positions in the limit, so the maximum recurring
    value is even iff the objective holds; it is flipped into the global
    min-even convention.  A product state pairs a game state with the
    record *before* the visit, so there are at most n*k! of them; the
    distinguished copies (state, initial record) are the search's roots, so
    they occupy indices 0..n-1.

    A visit's priority and next record depend only on the record and the
    state's colour, a bit mask with bit 2i set when pair i's Q holds the
    state and bit 2i+1 when its R does; each (record, colour) pair met is
    worked out once.  Records are numbered as they appear, the initial one
    0, and the search key of product state (s, record number r) is
    ``r * n + s``.
    """
    check_objective(g, obj, Streett | Rabin)
    n = g.n
    npairs = len(obj.pairs)
    colour = [0] * n
    for i, (q, r) in enumerate(obj.pairs):
        for s in q:
            colour[s] |= 1 << 2 * i
        for s in r:
            colour[s] |= 2 << 2 * i
    ncol = 4**npairs
    shift = 0 if isinstance(obj, Rabin) else 1
    flip_base = 2 * npairs + 2  # even, and no record priority exceeds it
    records = [tuple(range(npairs))]
    rec_id = {records[0]: 0}
    visits: dict = {}  # rid * ncol + colour -> (priority, next rid * n)

    def visit(rid, mask):
        e = f = 0
        hit = []
        rest = []
        for pos, i in enumerate(records[rid], 1):
            bits = mask >> 2 * i
            if bits & 1:
                e = pos
            if bits & 2:
                f = pos
                hit.append(i)
            else:
                rest.append(i)
        rec = tuple(hit + rest)
        nid = rec_id.get(rec)
        if nid is None:
            nid = rec_id[rec] = len(records)
            records.append(rec)
        return flip_base - (2 * e if e > f else 2 * f + 1) - shift, nid * n

    prios: list[int] = []
    succ = g.succ

    def expand(key, intern):
        rid, s = divmod(key, n)
        mask = colour[s]
        got = visits.get(rid * ncol + mask)
        if got is None:
            got = visits[rid * ncol + mask] = visit(rid, mask)
        prio, base = got
        prios.append(prio)
        return tuple([intern(base + t) for t in succ[s]])

    index, succ_out = explore(range(n), expand)
    origin = tuple([key % n for key in index])
    memory = tuple([records[key // n] for key in index])
    owners = tuple(map(g.owners.__getitem__, origin))
    given = g.given_weights
    weights = {idx: given[s] for idx, s in enumerate(origin) if s in given}
    labels = tuple(map(g.labels.__getitem__, origin)) if g.labels else (None,) * len(origin)
    product = GameGraph(owners, tuple(succ_out), weights, labels, g.initial)
    return ReductionResult(g, product, Parity(tuple(prios)), origin, memory, kind="lar")


def reduction_chain(g: GameGraph, obj: Objective) -> list[ReductionResult]:
    """The reductions from ``g`` to a 2-player parity game, in order: the
    record product for Rabin/Streett (without pairs, priority 0 everywhere
    for Streett, 1 for Rabin), then the gadget, the identity on a 2-player
    game.  Each step's source is the previous step's game.

    The parity objective entering the gadget is first put on its
    ``priority_ranks``, so a game with d distinct priorities gets at most
    ``3 * ((d + 1) // 2 + 1)`` gadget states per probabilistic state,
    whatever the values.  A 2-player game keeps its values: the kernels' work
    depends on how many there are, not on how large."""
    chain = []
    if isinstance(obj, (Streett, Rabin)):
        chain.append(lar_reduce(g, obj))
        g, obj = chain[-1].game, chain[-1].parity
    if isinstance(obj, Parity) and not g.is_two_player:
        obj = priority_ranks(obj)
    chain.append(reduce_stochastic_parity(g, obj))
    return chain


def lift_lasso(res: ReductionResult, lasso) -> "Lasso":
    """Image of an original-game lasso in a record product.

    The record memory is deterministic, so an ultimately periodic play maps
    to an ultimately periodic product play; the product cycle is found by
    walking the cycle until a (cycle position, product state) pair repeats.
    """
    from .objectives import Lasso

    if res.kind == "identity":
        return Lasso(tuple(lasso.stem), tuple(lasso.cycle))
    if res.kind != "lar":
        raise ValueError("lassos lift through record products only")
    origin = res.origin_map

    def step(idx, t):
        for j in res.game.succ[idx]:
            if origin[j] == t:
                return j
        raise ValueError(
            f"({origin[idx]}, {t}) is not an edge of the original game"
        )

    # original states are their own copies with the initial record
    cycle = list(lasso.cycle)
    play = list(lasso.stem) + cycle[:1]
    cur = play[0]
    prod_stem = []
    for t in play[1:]:
        prod_stem.append(cur)
        cur = step(cur, t)
    # cur sits at cycle position 0; loop until a (position, state) repeats
    seen = {}
    trail = []
    pos = 0
    while (pos, cur) not in seen:
        seen[(pos, cur)] = len(trail)
        trail.append(cur)
        cur = step(cur, cycle[(pos + 1) % len(cycle)])
        pos = (pos + 1) % len(cycle)
    start = seen[(pos, cur)]
    return Lasso(tuple(prod_stem + trail[:start]), tuple(trail[start:]))


def require_choices(choices, require: Iterable[int]) -> None:
    """Raise ``UndefinedOnRegion`` naming the states of ``require`` that no
    ``(memory, state)`` key of ``choices`` covers."""
    covered = {state for _m, state in choices}
    missing = sorted(s for s in require if s not in covered)
    if missing:
        raise UndefinedOnRegion(
            f"reduced strategy leaves original states {missing} without a choice"
        )


def pullback_strategy(
    res: ReductionResult,
    reduced_strategy: Strategy,
    require: Optional[Iterable[int]] = None,
) -> Strategy:
    """Carry a memoryless strategy on a record product back to the original
    game, as a finite-memory strategy whose memory is the record automaton.

    ``require`` lists original states that must end up with a choice;
    missing ones raise ``UndefinedOnRegion``.  The gadget and the identity
    need no pullback: ``almost_sure_solve`` reads the choices of the copies
    below ``source.n`` from the kernel's answer.
    """
    if res.kind != "lar":
        raise ValueError("strategies pull back through record products only")
    if not reduced_strategy.is_memoryless:
        raise ValueError("pullback expects a memoryless strategy on the reduced game")
    player = reduced_strategy.player
    owners = res.source.owners
    origin = res.origin_map
    memory = res.memory_map
    reduced = reduced_strategy.choices
    mem = reduced_strategy.memory_initial
    choices = {}
    updates = {}
    for idx, succ in enumerate(res.game.succ):
        s = origin[idx]
        rec = memory[idx]
        if succ:
            updates[(rec, s)] = memory[succ[0]]
        if owners[s] == player:
            t = reduced.get((mem, idx))
            if t is not None:
                choices[(rec, s)] = origin[t]
    if require is not None:
        require_choices(choices, require)
    r_init = memory[0] if memory else ()
    return Strategy(player=player, memory_initial=r_init, choices=choices, updates=updates)
