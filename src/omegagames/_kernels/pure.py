"""Pure-Python fixpoint kernel: attractor BFS and the recursive parity solver.

This module and the C extension ``_core`` (``_core.c``) are twins, routine
for routine: ``_attract_run`` and ``_set_alive`` mirror ``attract_run``
and ``set_alive``, and both kernels break ties the same way, so their
outputs are identical.  One of them is active per process, chosen through
``_kernels.active()``.  Keep the two in sync.  Removing or restoring a
state only flips its ``alive`` flag, and an attractor run counts a
state's alive successors when it first reaches it.  Here the scans over
the alive states and over a state's predecessors run inside C builtins
(``itertools.compress``, slices) rather than interpreted index loops.
"""
from __future__ import annotations

from itertools import compress

NAME = "python"


def _attract_run(owners, succ_ptr, succ, pred_ptr, pred, alive, exist, targets, run,
                 mark, cnt, stamp, choice):
    """Backward attractor run number ``run`` over the alive subgraph.

    A state of owner class ``o`` (0, 1, probabilistic) joins on its first
    attracted successor when ``exist[o]``, recording that successor in
    ``choice``; otherwise once all its alive successors are attracted.
    Those are counted from its ``succ`` row into ``cnt`` the first time
    the run reaches it.  The alive targets not yet marked in this run seed
    the queue in their given order.  Returns the attracted states in BFS
    order.  ``mark`` and ``stamp`` hold run numbers, so no per-run
    clearing is needed.
    """
    queue = []
    for t in targets:
        if alive[t] and mark[t] != run:
            mark[t] = run
            queue.append(t)
    for t in queue:
        for s in pred[pred_ptr[t]:pred_ptr[t + 1]]:
            if not alive[s] or mark[s] == run:
                continue
            o = owners[s]
            if 0 <= o <= 2 and exist[o]:
                mark[s] = run
                choice[s] = t
                queue.append(s)
            else:
                if stamp[s] != run:
                    stamp[s] = run
                    cnt[s] = sum(map(alive.__getitem__, succ[succ_ptr[s]:succ_ptr[s + 1]]))
                cnt[s] -= 1
                if cnt[s] == 0:
                    mark[s] = run
                    queue.append(s)
    return queue


def _set_alive(alive, states, on):
    """Mark ``states`` dead (``on`` false) or alive again."""
    for s in states:
        alive[s] = on


def attract(n, owners, succ_ptr, succ, pred_ptr, pred, targets, exist):
    """Backward attractor of ``targets`` over the whole game.

    ``exist[k]`` tells whether owner class ``k`` (0, 1, probabilistic)
    joins the attractor on the first attracted successor; otherwise the
    state joins once all its successors are attracted.  Returns the
    attracted states in BFS discovery order (targets first, in their given
    order) and a choice array holding, for every attracted exist-class
    state, the successor that attracted it.
    """
    choice = [-1] * n
    order = _attract_run(owners, succ_ptr, succ, pred_ptr, pred, [True] * n, exist, targets,
                         1, [0] * n, [0] * n, [0] * n, choice)
    return order, choice


def solve_parity(n, owners, priorities, succ_ptr, succ, pred_ptr, pred):
    """Zielonka's recursion with an explicit frame stack (stack-safe).

    Returns ``(winner, choice0, choice1)``: the winner of every state and,
    for each player, a memoryless winning choice on the states they own
    inside their winning region.  2-player games only.
    """
    alive = [True] * n
    winner = [-1] * n
    choice = ([-1] * n, [-1] * n)
    csr = (owners, succ_ptr, succ, pred_ptr, pred, alive)
    states = range(n)

    # Attractor scratch, re-stamped per run to avoid O(n) clears.
    mark = [0] * n
    cnt = [0] * n
    stamp = [0] * n
    run = 0

    # Frame: [phase, player, min_priority, removed_states]
    frames = [[0, -1, -1, None]]
    while frames:
        frame = frames[-1]
        phase = frame[0]
        if phase == 0:
            subgame = list(compress(states, alive))
            if not subgame:
                frames.pop()
                continue
            m = min([priorities[s] for s in subgame])
            i = m & 1
            targets = [s for s in subgame if priorities[s] == m]
            run += 1
            exist = (i == 0, i == 1, False)
            region = _attract_run(*csr, exist, targets, run, mark, cnt, stamp, choice[i])
            _set_alive(alive, region, False)
            frame[:] = [1, i, m, region]
            frames.append([0, -1, -1, None])
        elif phase == 1:
            i = frame[1]
            opp = 1 - i
            rest = [s for s in compress(states, alive) if winner[s] == opp]
            _set_alive(alive, frame[3], True)
            if not rest:
                chi = choice[i]
                for s in frame[3]:
                    winner[s] = i
                    if owners[s] == i and priorities[s] == frame[2]:
                        best = -1
                        for j in range(succ_ptr[s], succ_ptr[s + 1]):
                            t = succ[j]
                            if alive[t] and (best < 0 or t < best):
                                best = t
                        chi[s] = best
                frames.pop()
            else:
                run += 1
                exist = (opp == 0, opp == 1, False)
                trap = _attract_run(*csr, exist, rest, run, mark, cnt, stamp, choice[opp])
                for s in trap:
                    winner[s] = opp
                _set_alive(alive, trap, False)
                frame[0] = 2
                frame[3] = trap
                frames.append([0, -1, -1, None])
        else:
            _set_alive(alive, frame[3], True)
            frames.pop()
    return winner, choice[0], choice[1]
