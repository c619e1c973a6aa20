"""Pure-Python fixpoint kernel: attractor BFS and the recursive parity solver.

This module and the C extension ``_core`` (``_core.c``) implement the same
algorithms step for step (identical tie-breaking, identical outputs); one
of them is active per process, chosen through ``_kernels.active()``.  Keep
the two in sync.
"""
from __future__ import annotations

NAME = "python"


def attract(n, owners, succ_ptr, succ, pred_ptr, pred, alive, live, targets, exist):
    """Backward attractor over the alive subgraph.

    ``exist[k]`` tells whether owner class ``k`` (0, 1, probabilistic)
    joins the attractor on the first attracted successor; otherwise the
    state joins once all its alive successors are attracted.  ``live`` must
    hold the alive out-degrees.  Returns the attracted states in BFS
    discovery order (targets first, ascending) and a choice array holding,
    for every attracted exist-class state, the successor that attracted it.
    """
    e0, e1, e2 = exist
    mark = [False] * n
    cnt = [0] * n
    stamped = [False] * n
    choice = [-1] * n
    queue = []
    for t in targets:
        if alive[t] and not mark[t]:
            mark[t] = True
            queue.append(t)
    qi = 0
    while qi < len(queue):
        t = queue[qi]
        qi += 1
        for j in range(pred_ptr[t], pred_ptr[t + 1]):
            s = pred[j]
            if not alive[s] or mark[s]:
                continue
            o = owners[s]
            if (o == 0 and e0) or (o == 1 and e1) or (o == 2 and e2):
                mark[s] = True
                choice[s] = t
                queue.append(s)
            else:
                if not stamped[s]:
                    stamped[s] = True
                    cnt[s] = live[s]
                cnt[s] -= 1
                if cnt[s] == 0:
                    mark[s] = True
                    queue.append(s)
    return queue, choice


def solve_parity(n, owners, priorities, succ_ptr, succ, pred_ptr, pred):
    """Zielonka's recursion with an explicit frame stack (stack-safe).

    Returns ``(winner, choice0, choice1)``: the winner of every state and,
    for each player, a memoryless winning choice on the states they own
    inside their winning region.  2-player games only.
    """
    alive = [True] * n
    live = [succ_ptr[s + 1] - succ_ptr[s] for s in range(n)]
    winner = [-1] * n
    choice = ([-1] * n, [-1] * n)

    # Attractor scratch, re-stamped per run to avoid O(n) clears.
    mark = [0] * n
    cnt = [0] * n
    stamp = [0] * n
    run = 0

    def attract_sub(player, targets, choice_out):
        nonlocal run
        run += 1
        queue = list(targets)
        for t in targets:
            mark[t] = run
        qi = 0
        while qi < len(queue):
            t = queue[qi]
            qi += 1
            for j in range(pred_ptr[t], pred_ptr[t + 1]):
                s = pred[j]
                if not alive[s] or mark[s] == run:
                    continue
                if owners[s] == player:
                    mark[s] = run
                    choice_out[s] = t
                    queue.append(s)
                else:
                    if stamp[s] != run:
                        stamp[s] = run
                        cnt[s] = live[s]
                    cnt[s] -= 1
                    if cnt[s] == 0:
                        mark[s] = run
                        queue.append(s)
        return queue

    def remove_all(states):
        for s in states:
            alive[s] = False
            for j in range(pred_ptr[s], pred_ptr[s + 1]):
                live[pred[j]] -= 1

    def restore_all(states):
        for s in states:
            alive[s] = True
            for j in range(pred_ptr[s], pred_ptr[s + 1]):
                live[pred[j]] += 1

    # Frame: [phase, player, min_priority, removed_states]
    frames = [[0, -1, -1, None]]
    while frames:
        frame = frames[-1]
        phase = frame[0]
        if phase == 0:
            m = -1
            for s in range(n):
                if alive[s] and (m < 0 or priorities[s] < m):
                    m = priorities[s]
            if m < 0:
                frames.pop()
                continue
            i = m & 1
            targets = [s for s in range(n) if alive[s] and priorities[s] == m]
            region = attract_sub(i, targets, choice[i])
            remove_all(region)
            frame[0] = 1
            frame[1] = i
            frame[2] = m
            frame[3] = region
            frames.append([0, -1, -1, None])
        elif phase == 1:
            i = frame[1]
            opp = 1 - i
            rest = [s for s in range(n) if alive[s] and winner[s] == opp]
            if not rest:
                restore_all(frame[3])
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
                restore_all(frame[3])
                trap = attract_sub(opp, rest, choice[opp])
                for s in trap:
                    winner[s] = opp
                remove_all(trap)
                frame[0] = 2
                frame[3] = trap
                frames.append([0, -1, -1, None])
        else:
            restore_all(frame[3])
            frames.pop()
    return winner, choice[0], choice[1]
