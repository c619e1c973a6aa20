"""Certificate checkers for the benchmark's outputs.

Every checker here reads plain data (owner lists, successor lists,
priorities, strategy choice maps, automaton tables) and decides with its
own graph algorithms, so the program's solver never judges the program's
solver.  The one exception, the local-minimality check of a fairness
assumption in workloads.py, by definition asks the program's sufficiency
test.

Each checker returns a list of error strings; an empty list means the
answer is certified.

Conventions follow the program: owners 0 and 1 are the players, 2 is a
probabilistic state; parity is min-even (player 0 wins when the least
priority seen infinitely often is even).
"""
from __future__ import annotations

import itertools

P0, P1, PROB = 0, 1, 2


# ---------------------------------------------------------------------------
# graph primitives


def sccs(n, succ, active):
    """Strongly connected components of the subgraph induced by ``active``.

    Iterative Tarjan.  Returns ``(comps, comp_of)``: each component as a
    list of nodes, and the component index of every active node (-1 for
    inactive ones).
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp_of = [-1] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if not active[root] or index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            targets = succ[v]
            descended = False
            while i < len(targets):
                w = targets[i]
                i += 1
                if not active[w]:
                    continue
                if index[w] == -1:
                    work.append((v, i))
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return comps, comp_of


def nontrivial(comp, succ):
    """Whether a component holds a cycle (more than one node, or a self-loop)."""
    if len(comp) > 1:
        return True
    v = comp[0]
    return v in succ[v]


def maximal_end_components(n, succ, controlled, active):
    """Maximal end components of an MDP restricted to ``active``.

    ``controlled[s]`` marks the states whose edge the controller picks; every
    other state moves to all of its successors.  An end component is a
    strongly connected set where each controlled state keeps some edge
    inside and every other state keeps all of its edges inside.
    """
    active = list(active)
    while True:
        comps, comp_of = sccs(n, succ, active)
        dropped = False
        changed = True
        while changed:
            changed = False
            for comp in comps:
                for s in comp:
                    if not active[s]:
                        continue
                    c = comp_of[s]
                    if controlled[s]:
                        ok = any(active[t] and comp_of[t] == c for t in succ[s])
                    else:
                        ok = all(active[t] and comp_of[t] == c for t in succ[s])
                    if not ok:
                        active[s] = False
                        changed = dropped = True
        if not dropped:
            return comps


def backward_reach(n, succ, targets):
    """States with a path into ``targets``."""
    pred = [[] for _ in range(n)]
    for s in range(n):
        for t in succ[s]:
            pred[t].append(s)
    seen = [False] * n
    queue = []
    for t in targets:
        if not seen[t]:
            seen[t] = True
            queue.append(t)
    while queue:
        t = queue.pop()
        for s in pred[t]:
            if not seen[s]:
                seen[s] = True
                queue.append(s)
    return {s for s in range(n) if seen[s]}


# ---------------------------------------------------------------------------
# parity games with a memoryless witness


def check_almost_sure(owners, succ, prio, player, region, choice):
    """Certify a memoryless almost-sure parity witness.

    ``region`` must be closed: the opponent's and probabilistic successors
    stay inside, and ``choice[s]`` is an edge into the region for each of the
    player's states.  With the strategy fixed, no end component of the
    remaining MDP inside the region may have a least priority of the
    losing parity; this is decided by one maximal-end-component
    decomposition per losing priority p on the states of priority >= p.
    """
    errors = []
    n = len(owners)
    inside = [False] * n
    for s in region:
        inside[s] = True
    mdp_succ = list(succ)
    for s in region:
        if owners[s] == player:
            t = choice.get(s)
            if t is None:
                errors.append(f"state {s}: no witness choice")
                continue
            if t not in succ[s]:
                errors.append(f"state {s}: witness choice {t} is not an edge")
                continue
            if not inside[t]:
                errors.append(f"state {s}: witness choice {t} leaves the region")
            mdp_succ[s] = (t,)
        else:
            for t in succ[s]:
                if not inside[t]:
                    errors.append(f"state {s}: successor {t} leaves the region")
                    break
    if errors:
        return errors
    controlled = [owners[s] == 1 - player for s in range(n)]
    losing = sorted({prio[s] for s in region if prio[s] % 2 != player})
    for p in losing:
        active = [inside[s] and prio[s] >= p for s in range(n)]
        for comp in maximal_end_components(n, mdp_succ, controlled, active):
            if any(prio[s] == p for s in comp):
                errors.append(
                    f"an end component with least priority {p} lies inside "
                    f"the region of player {player} (e.g. state {min(comp)})"
                )
                break
    return errors


# ---------------------------------------------------------------------------
# Streett and Rabin sides of a 2-player game with a finite-memory witness


def strategy_product(owners, succ, player, region, strategy):
    """Reachable part of the game composed with a finite-memory strategy.

    ``strategy`` is read as data: ``memory_initial``, ``choices`` keyed by
    ``(memory, state)`` and ``updates`` keyed the same way (a missing update
    keeps the memory).  Plays start in every region state with the initial
    memory.  Returns ``(errors, states, edges)`` where ``states[v]`` is the
    game state of product node v.
    """
    errors = []
    inside = set(region)
    choices = strategy.choices
    updates = strategy.updates
    m0 = strategy.memory_initial
    index = {}
    states = []
    edges = []

    def intern(s, m):
        key = (s, m)
        v = index.get(key)
        if v is None:
            v = len(states)
            index[key] = v
            states.append(s)
            edges.append(None)
            nodes.append(key)
        return v

    nodes = []
    for s in sorted(inside):
        intern(s, m0)
    qi = 0
    while qi < len(nodes):
        s, m = nodes[qi]
        m2 = updates.get((m, s), m)
        if owners[s] == player:
            t = choices.get((m, s))
            if t is None or t not in succ[s]:
                errors.append(f"state {s}: no valid witness choice under memory {m!r}")
                targets = ()
            else:
                targets = (t,)
        else:
            targets = succ[s]
        for t in targets:
            if t not in inside:
                errors.append(f"a play of the witness leaves the region at {s} -> {t}")
        edges[qi] = [intern(t, m2) for t in targets]
        qi += 1
    return errors, states, edges


def streett_cycle(states, edges, pairs, active):
    """A reachable cycle whose state set satisfies every Streett pair, or
    None.  Emerson-Lei refinement: in each nontrivial SCC, a pair whose
    request occurs without its response can only be met by a cycle that
    avoids that request, so those states are removed and the rest is split
    again."""
    n = len(states)
    work = [list(active)]
    while work:
        mask = work.pop()
        comps, comp_of = sccs(n, edges, mask)
        for comp in comps:
            if not nontrivial(comp, edges):
                continue
            seen = {states[v] for v in comp}
            broken = [q for q, r in pairs if seen & q and not seen & r]
            if not broken:
                return comp
            sub = [False] * n
            for v in comp:
                sub[v] = not any(states[v] in q for q in broken)
            work.append(sub)
    return None


def check_streett_witness(owners, succ, pairs, player, region, strategy, streett_side):
    """Certify a finite-memory sure-winning witness in a 2-player game.

    ``streett_side`` says whether ``player`` wants the Streett condition
    over ``pairs`` (for each pair, no cycle avoiding R_i may visit Q_i) or
    its Rabin complement (no cycle may satisfy the Streett condition).
    """
    errors, states, edges = strategy_product(owners, succ, player, region, strategy)
    if errors:
        return errors[:5]
    n = len(states)
    if streett_side:
        for k, (q, r) in enumerate(pairs):
            mask = [states[v] not in r for v in range(n)]
            comps, comp_of = sccs(n, edges, mask)
            for comp in comps:
                if nontrivial(comp, edges) and any(states[v] in q for v in comp):
                    errors.append(f"a witness cycle visits Q_{k} and avoids R_{k}")
                    break
    else:
        cycle = streett_cycle(states, edges, pairs, [True] * n)
        if cycle is not None:
            errors.append(
                f"a witness cycle through game state {states[cycle[0]]} "
                "satisfies the Streett condition"
            )
    return errors


def check_partition(n, w0, w1):
    errors = []
    if w0 & w1:
        errors.append(f"regions overlap on {sorted(w0 & w1)[:5]}")
    missing = set(range(n)) - w0 - w1
    if missing:
        errors.append(f"states in neither region: {sorted(missing)[:5]}")
    return errors


# ---------------------------------------------------------------------------
# synthesis


def split_game(delta, prios, n_inputs, n_outputs):
    """The synthesis game of a deterministic parity automaton.

    Environment copies 0..n-1 (player 1) move on an input letter to the
    choice state n + q * n_inputs + i (player 0), which moves on an output
    letter to the automaton successor; duplicate targets are merged in
    output order.  Choice states carry a neutral priority above every
    automaton priority.
    """
    n = len(prios)
    neutral = max(prios) + 1
    owners = [P1] * n
    succ = [tuple(n + q * n_inputs + i for i in range(n_inputs)) for q in range(n)]
    prio = list(prios)
    for q in range(n):
        for i in range(n_inputs):
            targets = []
            for o in range(n_outputs):
                t = delta[q][i * n_outputs + o]
                if t not in targets:
                    targets.append(t)
            owners.append(P0)
            succ.append(tuple(targets))
            prio.append(neutral)
    return owners, succ, prio


def cooperative_region(succ, prio):
    """States with some path whose least recurring priority is even."""
    n = len(succ)
    targets = set()
    for e in sorted({p for p in prio if p % 2 == 0}):
        comps, comp_of = sccs(n, succ, [p >= e for p in prio])
        for comp in comps:
            if nontrivial(comp, succ) and any(prio[s] == e for s in comp):
                targets.update(comp)
    return backward_reach(n, succ, targets)


def zielonka(owners, succ, prio, active):
    """Winning regions and memoryless strategies of a 2-player parity game
    on the ``active`` subgame (an independent textbook recursion, used only
    on the small split games of the synthesis workload)."""
    n = len(owners)
    nodes = [s for s in range(n) if active[s]]
    if not nodes:
        return (set(), set()), ({}, {})
    m = min(prio[s] for s in nodes)
    i = m % 2
    attr_i, strat_i = attract(owners, succ, active, i, [s for s in nodes if prio[s] == m])
    for s in attr_i:
        if owners[s] == i and s not in strat_i:
            strat_i[s] = next(t for t in succ[s] if active[t])
    rest = [active[s] and s not in attr_i for s in range(n)]
    (w, strat) = zielonka(owners, succ, prio, rest)
    if not w[1 - i]:
        wins = [set(), set()]
        wins[i] = set(nodes)
        strats = [{}, {}]
        strats[i] = {**strat[i], **strat_i}
        strats[1 - i] = {}
        return tuple(wins), tuple(strats)
    attr_o, strat_o = attract(owners, succ, active, 1 - i, sorted(w[1 - i]))
    rest = [active[s] and s not in attr_o for s in range(n)]
    (w2, strat2) = zielonka(owners, succ, prio, rest)
    wins = [set(w2[0]), set(w2[1])]
    wins[1 - i] |= attr_o
    strats = [dict(strat2[0]), dict(strat2[1])]
    strats[1 - i].update(strat[1 - i])
    strats[1 - i].update(strat_o)
    return tuple(wins), tuple(strats)


def attract(owners, succ, active, player, targets):
    """Attractor of ``player`` to ``targets`` inside ``active`` (2-player)."""
    n = len(owners)
    inside = [False] * n
    for t in targets:
        inside[t] = True
    count = [sum(1 for t in succ[s] if active[t]) for s in range(n)]
    pred = [[] for _ in range(n)]
    for s in range(n):
        if active[s]:
            for t in succ[s]:
                if active[t]:
                    pred[t].append(s)
    strategy = {}
    queue = list(targets)
    while queue:
        t = queue.pop()
        for s in pred[t]:
            if inside[s]:
                continue
            if owners[s] == player:
                inside[s] = True
                strategy[s] = t
                queue.append(s)
            else:
                count[s] -= 1
                if count[s] == 0:
                    inside[s] = True
                    queue.append(s)
    return {s for s in range(n) if inside[s]}, strategy


def fair_game(owners, succ, prio, initial, n_env, n_inputs, safety, fair):
    """The fairness-wrapped game of a split game under an assumption.

    Safety edges are removed (an environment state left without moves keeps
    its edges); every environment state with fair edges gets a
    probabilistic wrapper over the state itself and the fair edges'
    targets, and every edge into the state, the initial designation
    included, is redirected to the wrapper.
    """
    n = len(owners)
    succ = list(succ)
    for q in range(n_env):
        kept = tuple(c for c in succ[q] if (q, (c - n_env) % n_inputs) not in safety)
        if kept:
            succ[q] = kept
    by_state = {}
    for q, i in sorted(fair):
        by_state.setdefault(q, []).append(i)
    wrapped = {q: n + k for k, q in enumerate(sorted(by_state))}
    out_owners = list(owners)
    out_succ = [tuple(wrapped.get(t, t) for t in ss) for ss in succ]
    out_prio = list(prio)
    for q in sorted(by_state):
        out_owners.append(PROB)
        out_succ.append((q,) + tuple(n_env + q * n_inputs + i for i in by_state[q]))
        out_prio.append(prio[q])
    return out_owners, out_succ, out_prio, wrapped.get(initial, initial)


def lasso_inf(delta, initial, stem, cycle):
    """States a deterministic automaton visits infinitely often on the word
    stem cycle^omega (transition tables indexed by full letter)."""
    q = initial
    for a in stem:
        q = delta[q][a]
    seen = {}
    rounds = []
    while q not in seen:
        seen[q] = len(rounds)
        visited = []
        for a in cycle:
            q = delta[q][a]
            visited.append(q)
        rounds.append(visited)
    inf = set()
    for visited in rounds[seen[q]:]:
        inf.update(visited)
    return inf


def transducer_lasso(moves, initial, n_outputs, istem, icycle):
    """The full-letter lasso a Mealy machine produces on an input lasso."""
    q = initial
    stem = []
    for i in istem:
        o, q = moves[q][i]
        stem.append(i * n_outputs + o)
    seen = {}
    trail = []
    pos = 0
    while (pos, q) not in seen:
        seen[(pos, q)] = len(trail)
        i = icycle[pos]
        o, q = moves[q][i]
        trail.append(i * n_outputs + o)
        pos = (pos + 1) % len(icycle)
    start = seen[(pos, q)]
    return stem + trail[:start], trail[start:]


def input_lassos(n_inputs, max_stem=1, max_cycle=3):
    """The fixed lasso set: every stem up to ``max_stem`` letters and every
    cycle up to ``max_cycle`` letters."""
    stems = [()]
    for k in range(1, max_stem + 1):
        stems += list(itertools.product(range(n_inputs), repeat=k))
    cycles = []
    for k in range(1, max_cycle + 1):
        cycles += list(itertools.product(range(n_inputs), repeat=k))
    return [(s, c) for s in stems for c in cycles]


def check_transducer(spec, assumption, transducer, n_outputs, lassos):
    """Every transducer run on the lassos that the assumption automaton
    accepts must be accepted by the specification.

    ``spec`` is ``(delta, priorities, initial)`` (min-even parity),
    ``assumption`` is ``(delta, pairs, initial)`` (Streett) and
    ``transducer`` is ``(moves, initial)``.  Returns the errors and the
    number of lassos the assumption accepted.
    """
    sdelta, sprio, sinit = spec
    adelta, apairs, ainit = assumption
    moves, tinit = transducer
    errors = []
    assumed = 0
    for istem, icycle in lassos:
        stem, cycle = transducer_lasso(moves, tinit, n_outputs, istem, icycle)
        inf = lasso_inf(adelta, ainit, stem, cycle)
        if not all(not (inf & q) or (inf & r) for q, r in apairs):
            continue
        assumed += 1
        if min(sprio[q] for q in lasso_inf(sdelta, sinit, stem, cycle)) % 2:
            errors.append(f"input lasso {istem}{icycle}^w: assumed but the specification rejects")
    return errors, assumed
