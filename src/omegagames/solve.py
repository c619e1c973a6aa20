"""Game solving: Zielonka for parity games (2-player, and 2.5-player for
the almost-sure pipeline), cooperative regions and the brute-force oracle.

Player 1 is solved as player 0 of the dual of the parity form (owners
swapped, objective complemented), on the same CSR and record product.
"""
from __future__ import annotations

import itertools

from . import _kernels
from .errors import NotDeterministicGame, TooLarge, UndefinedOnRegion
from .graph import PLAYER0, PLAYER1, GameGraph, _tarjan, check_objective
from .objectives import Objective, Parity, Rabin, Streett, complement
from .reductions import dual_game, parity_form, pullback_strategy
from .strategies import MEMORYLESS, Region, Strategy

ORACLE_STATE_BOUND = 10
KERNEL_PRIORITY_BOUND = 2**31 - 1  # the compiled kernel holds priorities in C ints


def _solve_parity(g: GameGraph, obj: Parity, live=None):
    """The kernel's answer on a parity game: ``(winner, choice0, choice1)``,
    the winner of every state and, per player, a choice on the states they
    own in their region (see ``solve_parity``; player 0's almost-sure
    region on a 2.5-player game).  ``live`` is a ``(live_ptr, live)`` CSR
    of live edges that replaces the game's own (those of its probabilistic
    states); its ``live_ptr`` must hold ``g.n + 1`` offsets."""
    check_objective(g, obj, Parity)
    if obj.max_priority > KERNEL_PRIORITY_BOUND:
        raise TooLarge(
            f"priority {obj.max_priority} is above {KERNEL_PRIORITY_BOUND}, "
            "the largest the fixpoint kernels hold"
        )
    flat = g.flat
    live_ptr, live = (flat.live_ptr, flat.live) if live is None else live
    return _kernels.active().solve_parity(
        flat.n, flat.owners, obj.priorities,
        flat.succ_ptr, flat.succ, flat.pred_ptr, flat.pred, live_ptr, live,
    )


def zielonka_solve(g: GameGraph, obj: Parity) -> tuple[Region, Region, Strategy, Strategy]:
    """Solve a 2-player parity game: regions and memoryless strategies.

    ``W0`` and ``W1`` partition the state space; each strategy is winning
    on its player's region.
    """
    if not g.is_two_player:
        raise NotDeterministicGame("zielonka_solve requires a game without probabilistic states")
    winner, *choice = _solve_parity(g, obj)
    won = ([], [])
    chosen = ({}, {})
    owners = g.owners
    for s, w in enumerate(winner):
        won[w].append(s)
        if owners[s] == w:
            chosen[w][(MEMORYLESS, s)] = choice[w][s]
    return (
        Region(frozenset(won[0])), Region(frozenset(won[1])),
        Strategy(PLAYER0, choices=chosen[0]), Strategy(PLAYER1, choices=chosen[1]),
    )


def cooperative_region(g: GameGraph, obj: Objective) -> Region:
    """States from which some path (players cooperating) satisfies the
    objective.

    One SCC refinement serves every objective class (Emerson and Lei,
    "Modalities for model checking", SCP 1987): a nontrivial SCC of the
    alive states is accepted if none of its states is unanswered, else it
    is decomposed again without them; Rabin pairs are refined one at a
    time.  The region is every state that can reach an accepted one.
    """
    if not g.is_two_player:
        raise NotDeterministicGame("cooperative_region requires a game without probabilistic states")
    check_objective(g, obj, Objective)
    succ = g.succ
    targets = set()
    for part in [Rabin([pair]) for pair in obj.pairs] if isinstance(obj, Rabin) else [obj]:
        alive = [True] * g.n
        while comps := _tarjan(succ, alive):
            for comp in comps:
                cyclic = len(comp) > 1 or comp[0] in succ[comp[0]]
                drop = _unanswered(part, comp) if cyclic else comp
                if not drop:
                    targets.update(comp)
                for s in drop or comp:
                    alive[s] = False
    if not targets:
        return Region(frozenset())
    flat = g.flat
    order, _ = _kernels.active().attract(
        flat.n, flat.owners, flat.succ_ptr, flat.succ, flat.pred_ptr, flat.pred,
        sorted(targets), (True, True, True),
    )
    return Region(frozenset(order))


def _unanswered(obj: Objective, comp: list[int]) -> list[int]:
    """The states of the strongly connected set ``comp`` that no accepted
    path staying inside it visits infinitely often; none iff ``comp``
    itself is accepted.  A Rabin objective holds exactly one pair here."""
    if isinstance(obj, Parity):
        least = min(obj.priorities[s] for s in comp)
        return [s for s in comp if obj.priorities[s] == least] if least % 2 else []
    inside = set(comp)
    if isinstance(obj, Streett):
        return [s for q, r in obj.pairs if r.isdisjoint(inside) for s in q & inside]
    ((q, r),) = obj.pairs
    return comp if q.isdisjoint(inside) else [s for s in comp if s in r]


def _chain_verdicts(n, succ, obj: Objective) -> list[bool]:
    """Per-state almost-sure satisfaction in a finite Markov chain.

    ``succ`` is the adjacency of the chain (strategy choices already
    substituted).  A state satisfies the objective with probability 1 iff
    no reachable bottom SCC violates it.
    """
    comps = _tarjan(succ, [True] * n)
    comp_of = [-1] * n
    for ci, comp in enumerate(comps):
        for s in comp:
            comp_of[s] = ci
    # comps are in reverse topological order: successors of a component
    # always sit in an earlier entry.  A component is bad if it is a
    # violating bottom SCC or can reach one.
    bad = [False] * len(comps)
    for ci, comp in enumerate(comps):
        is_bottom = True
        for s in comp:
            for t in succ[s]:
                cj = comp_of[t]
                if cj != ci:
                    is_bottom = False
                    if bad[cj]:
                        bad[ci] = True
        if bad[ci]:
            continue
        if is_bottom:
            # a trivial SCC without a self-loop cannot be bottom in a
            # non-blocking game, so comp always has an internal edge here
            bad[ci] = not obj.accepts_inf(comp)
    return [not bad[comp_of[s]] for s in range(n)]


def oracle_solve(
    g: GameGraph, obj: Objective, player: int, bound: int = ORACLE_STATE_BOUND
) -> Region:
    """Almost-sure region by brute force; exponential, refuses games above
    ``bound`` states.

    Parity: both players are positional, so a state wins iff some pure
    memoryless strategy of ``player`` beats every pure memoryless opponent
    (the opponent's best response to a fixed memoryless strategy is an MDP
    with a parity objective, where memoryless strategies suffice).

    Rabin for the player: the Rabin side is positional, the opponent is
    not, so opponents are handled exactly instead of enumerated: under any
    opponent strategy the limit set is almost surely an end component of
    the residual MDP, hence a fixed strategy wins almost surely iff every
    reachable end component satisfies the objective.

    Streett for the player: the player may need memory; by qualitative
    determinacy the region is the complement of the states where the
    (positional) opponent can force the dual Rabin objective with positive
    probability.
    """
    if g.n > bound:
        raise TooLarge(f"oracle limited to {bound} states, game has {g.n}")
    rel_obj = obj if player == PLAYER0 else complement(obj)
    if isinstance(rel_obj, Parity):
        opponent = 1 - player
        mine = [s for s in range(g.n) if g.owners[s] == player]
        theirs = [s for s in range(g.n) if g.owners[s] == opponent]
        base = list(g.succ)
        winning = set()
        for my_pick in itertools.product(*(g.succ[s] for s in mine)):
            succ = base[:]
            for s, t in zip(mine, my_pick):
                succ[s] = (t,)
            ok = set(range(g.n)) - winning
            for their_pick in itertools.product(*(g.succ[s] for s in theirs)):
                chain = succ[:]
                for s, t in zip(theirs, their_pick):
                    chain[s] = (t,)
                verdict = _chain_verdicts(g.n, chain, rel_obj)
                ok = {s for s in ok if verdict[s]}
                if not ok:
                    break
            winning.update(ok)
        return Region(frozenset(winning))
    if isinstance(rel_obj, Rabin):
        return Region(_oracle_rabin_side(g, player, rel_obj))
    positive = _oracle_positive_rabin(g, 1 - player, complement(rel_obj))
    return Region(frozenset(range(g.n)) - positive)


def _forced_succ(g, fixed):
    return [(fixed[s],) if s in fixed else g.succ[s] for s in range(g.n)]


def _strongly_connected(states, edges):
    start = next(iter(states))
    for direction in (edges, _reverse(states, edges)):
        seen = {start}
        stack = [start]
        while stack:
            for t in direction[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if seen != states:
            return False
    return True


def _reverse(states, edges):
    rev = {s: [] for s in states}
    for s, targets in edges.items():
        for t in targets:
            rev[t].append(s)
    return rev


def _end_components(n, succ, free):
    """All end components: ``free`` states pick among their edges, the rest
    must keep their whole successor set inside."""
    out = []
    for mask in range(1, 1 << n):
        states = {s for s in range(n) if mask >> s & 1}
        edges = {}
        ok = True
        for s in states:
            inside = [t for t in succ[s] if t in states]
            if free[s]:
                if not inside:
                    ok = False
                    break
            elif len(inside) != len(succ[s]):
                ok = False
                break
            edges[s] = inside
        if ok and _strongly_connected(states, edges):
            out.append(frozenset(states))
    return out


def _can_reach(n, succ, targets):
    reach = set(targets)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s not in reach and any(t in reach for t in succ[s]):
                reach.add(s)
                changed = True
    return reach


def _oracle_rabin_side(g, player, rabin):
    """States where some memoryless strategy of the Rabin player defeats
    every opponent strategy (memoryful included) with probability 1."""
    n = g.n
    mine = [s for s in range(n) if g.owners[s] == player]
    free = [g.owners[s] == 1 - player for s in range(n)]
    winning = set()
    for picks in itertools.product(*(g.succ[s] for s in mine)):
        succ = _forced_succ(g, dict(zip(mine, picks)))
        bad = set()
        for comp in _end_components(n, succ, free):
            if not rabin.accepts_inf(comp):
                bad.update(comp)
        doomed = _can_reach(n, succ, bad)
        winning.update(set(range(n)) - doomed)
    return frozenset(winning)


def _oracle_positive_rabin(g, player, rabin):
    """States where some memoryless strategy of the Rabin player keeps the
    violation probability of every opposing strategy above zero."""
    n = g.n
    mine = [s for s in range(n) if g.owners[s] == player]
    free = [g.owners[s] == 1 - player for s in range(n)]
    streett = complement(rabin)
    positive = set()
    for picks in itertools.product(*(g.succ[s] for s in mine)):
        succ = _forced_succ(g, dict(zip(mine, picks)))
        safe = _mdp_almost_sure_region(n, succ, free, streett)
        positive.update(set(range(n)) - safe)
    return frozenset(positive)


def _mdp_almost_sure_region(n, succ, free, obj):
    """Almost-sure region of the controller (the ``free`` states) in an MDP:
    the largest set from which good end components are reached almost
    surely while staying inside."""
    region = set(range(n))
    while True:
        good = set()
        for comp in _end_components(n, succ, free):
            if comp <= region and obj.accepts_inf(comp):
                good.update(comp)
        smaller = _almost_sure_reach_inside(n, succ, free, region, good)
        if smaller == region:
            return region
        region = smaller


def _almost_sure_reach_inside(n, succ, free, region, targets):
    current = set(region)
    while True:
        closed = set()
        for s in current:
            inside = [t for t in succ[s] if t in current]
            if free[s]:
                if inside:
                    closed.add(s)
            elif len(inside) == len(succ[s]):
                closed.add(s)
        reach = set(targets & closed)
        changed = True
        while changed:
            changed = False
            for s in closed - reach:
                if any(t in reach for t in succ[s] if t in closed):
                    reach.add(s)
                    changed = True
        if reach == current:
            return current
        current = reach


def almost_sure_solve(g: GameGraph, obj: Objective, player: int) -> tuple[Region, Strategy]:
    """Almost-sure winning region and witness strategy for ``player``.

    The kernel solves the ``parity_form`` of the game, for player 1 its
    dual, which shares its CSR, reading each probabilistic state as a
    player-1 state whose edges are live, so no gadget is built.  The region
    is the states it gives player 0, and the strategy its choices on the
    ones player 0 owns, which must cover the owned states of the region; a
    record product lifts the region and pulls the strategy back."""
    if player not in (PLAYER0, PLAYER1):
        raise ValueError(f"player must be 0 or 1, got {player}")
    product, game, obj = parity_form(g, obj)
    if player == PLAYER1:
        game, obj = dual_game(game, obj)
    winner, choice, _ = _solve_parity(game, obj)
    region = [s for s, w in enumerate(winner) if w == PLAYER0]
    owned = [s for s in region if game.owners[s] == PLAYER0]
    missing = [s for s in owned if choice[s] < 0]
    if missing:
        raise UndefinedOnRegion(f"the kernel leaves states {missing} of the region without a choice")
    strategy = Strategy(player, choices={(MEMORYLESS, s): choice[s] for s in owned})
    if product is not None:
        region = product.lift(region)
        strategy = pullback_strategy(product, strategy)
    return Region(frozenset(region)), strategy
