"""Tests of the benchmark's certificate checkers.

    python3 -m pytest -q perfbench/test_certify.py

On seeded games of at most 10 states the checkers accept the program's
answers and the regions agree with the brute-force ``oracle_solve``; they
reject answers with one state moved between the regions or one witness
choice redirected out of its region.
"""
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.setdefault("OMEGAGAMES_BACKEND", "python")

import pytest  # noqa: E402

import certify  # noqa: E402
from omegagames.benchgen import SplitMix64  # noqa: E402
from omegagames.graph import build_game  # noqa: E402
from omegagames.objectives import Parity, Streett  # noqa: E402
from omegagames.solve import almost_sure_solve, oracle_solve, zielonka_solve  # noqa: E402
from omegagames.strategies import Strategy  # noqa: E402

SEEDS = range(40)


def small_game(rng, owners_from, max_states=8):
    n = 2 + rng.below(max_states - 1)
    states = []
    for _ in range(n):
        degree = 1 + rng.below(min(3, n))
        targets = []
        while len(targets) < degree:
            t = rng.below(n)
            if t not in targets:
                targets.append(t)
        states.append((owners_from[rng.below(len(owners_from))], targets))
    return build_game(states, initial=0)


def parity_case(seed):
    rng = SplitMix64(1000 + seed)
    g = small_game(rng, (0, 1, 2))
    return g, Parity(tuple(rng.below(4) for _ in range(g.n)))


def streett_case(seed):
    rng = SplitMix64(2000 + seed)
    g = small_game(rng, (0, 1))
    pairs = []
    for _ in range(1 + rng.below(2)):
        q = {s for s in range(g.n) if rng.below(2)}
        r = {s for s in range(g.n) if rng.below(3) == 0}
        pairs.append((q, r))
    return g, Streett(pairs)


def parity_errors(g, obj, answer):
    """All checker errors for a two-player answer ``{player: (region, choice)}``."""
    errors = []
    regions = [answer[0][0], answer[1][0]]
    if regions[0] & regions[1]:
        errors.append("overlap")
    for p in (0, 1):
        region, choice = answer[p]
        errors += certify.check_almost_sure(g.owners, g.succ, obj.priorities, p, region, choice)
    return errors


def solve_parity(g, obj):
    answer = {}
    for p in (0, 1):
        region, strategy = almost_sure_solve(g, obj, p)
        answer[p] = (set(region.states), {s: t for (_m, s), t in strategy.choices.items()})
    return answer


def streett_errors(g, obj, answer):
    errors = certify.check_partition(g.n, answer[0][0], answer[1][0])
    for p in (0, 1):
        region, strategy = answer[p]
        errors += certify.check_streett_witness(
            g.owners, g.succ, obj.pairs, p, region, strategy, streett_side=p == 0
        )
    return errors


def solve_streett(g, obj):
    answer = {}
    for p in (0, 1):
        region, strategy = almost_sure_solve(g, obj, p)
        answer[p] = (frozenset(region.states), strategy)
    return answer


@pytest.mark.parametrize("seed", SEEDS)
def test_parity_answers_certified_and_match_oracle(seed):
    g, obj = parity_case(seed)
    answer = solve_parity(g, obj)
    assert parity_errors(g, obj, answer) == []
    for p in (0, 1):
        assert answer[p][0] == set(oracle_solve(g, obj, p).states)


def test_parity_state_moved_between_regions_rejected():
    tried = 0
    for seed in SEEDS:
        g, obj = parity_case(seed)
        answer = solve_parity(g, obj)
        for p in (0, 1):
            for s in sorted(answer[p][0]):
                bad = {q: (set(r), dict(c)) for q, (r, c) in answer.items()}
                bad[p][0].discard(s)
                bad[p][1].pop(s, None)
                bad[1 - p][0].add(s)
                assert parity_errors(g, obj, bad), (seed, p, s)
                tried += 1
    assert tried >= 100


def test_parity_choice_redirected_out_of_region_rejected():
    tried = 0
    for seed in SEEDS:
        g, obj = parity_case(seed)
        answer = solve_parity(g, obj)
        for p in (0, 1):
            region, choice = answer[p]
            for s in sorted(choice):
                for t in g.succ[s]:
                    if t not in region:
                        bad = {q: (set(r), dict(c)) for q, (r, c) in answer.items()}
                        bad[p][1][s] = t
                        assert parity_errors(g, obj, bad), (seed, p, s, t)
                        tried += 1
    assert tried >= 10


@pytest.mark.parametrize("seed", SEEDS)
def test_streett_answers_certified_and_match_oracle(seed):
    g, obj = streett_case(seed)
    answer = solve_streett(g, obj)
    assert streett_errors(g, obj, answer) == []
    for p in (0, 1):
        assert answer[p][0] == oracle_solve(g, obj, p).states


def test_streett_state_moved_between_regions_rejected():
    tried = 0
    for seed in SEEDS:
        g, obj = streett_case(seed)
        answer = solve_streett(g, obj)
        for p in (0, 1):
            for s in sorted(answer[p][0]):
                bad = dict(answer)
                bad[p] = (answer[p][0] - {s}, answer[p][1])
                bad[1 - p] = (answer[1 - p][0] | {s}, answer[1 - p][1])
                assert streett_errors(g, obj, bad), (seed, p, s)
                tried += 1
    assert tried >= 100


def test_streett_choice_redirected_out_of_region_rejected():
    tried = 0
    for seed in SEEDS:
        g, obj = streett_case(seed)
        answer = solve_streett(g, obj)
        for p in (0, 1):
            region, strategy = answer[p]
            m0 = strategy.memory_initial
            for s in sorted(region):
                if g.owners[s] != p:
                    continue
                for t in g.succ[s]:
                    if t in region:
                        continue
                    choices = dict(strategy.choices)
                    choices[(m0, s)] = t
                    bad = dict(answer)
                    bad[p] = (region, Strategy(p, m0, choices, strategy.updates))
                    assert streett_errors(g, obj, bad), (seed, p, s, t)
                    tried += 1
    assert tried >= 10


def test_streett_cycle_needs_every_pair():
    # 0 <-> 1 <-> 2: a request at 2 is never answered, so only {0, 1} is left
    states = [0, 1, 2]
    edges = [[1], [0, 2], [1]]
    pairs = [(frozenset({0}), frozenset({1})), (frozenset({2}), frozenset())]
    cycle = certify.streett_cycle(states, edges, pairs, [True] * 3)
    assert cycle is not None and sorted(cycle) == [0, 1]
    pairs.append((frozenset({1}), frozenset({2})))
    assert certify.streett_cycle(states, edges, pairs, [True] * 3) is None


@pytest.mark.parametrize("seed", SEEDS)
def test_independent_zielonka_matches_program(seed):
    rng = SplitMix64(3000 + seed)
    g = small_game(rng, (0, 1), max_states=10)
    obj = Parity(tuple(rng.below(5) for _ in range(g.n)))
    w0, w1, _s0, _s1 = zielonka_solve(g, obj)
    (v0, v1), (c0, c1) = certify.zielonka(g.owners, g.succ, obj.priorities, [True] * g.n)
    assert (v0, v1) == (set(w0.states), set(w1.states))
    assert certify.check_almost_sure(g.owners, g.succ, obj.priorities, 0, v0, c0) == []
    assert certify.check_almost_sure(g.owners, g.succ, obj.priorities, 1, v1, c1) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_cooperative_region_matches_program(seed):
    from omegagames.solve import cooperative_region

    rng = SplitMix64(4000 + seed)
    g = small_game(rng, (0, 1), max_states=10)
    obj = Parity(tuple(rng.below(4) for _ in range(g.n)))
    assert certify.cooperative_region(g.succ, obj.priorities) == set(
        cooperative_region(g, obj).states
    )


def test_synthesis_certificate_accepts_and_rejects():
    import workloads
    from omegagames.errors import NoFairnessAssumptionExists, SpecUnsatisfiable

    wl = workloads.SynthRepair()
    rng = SplitMix64(5)
    checked = widened = 0
    while checked < 4:
        prio, delta = workloads.random_spec(rng, 6, sink=checked % 2 == 0)
        inp = {"prio": prio, "delta": delta}
        try:
            out = wl.op(inp)
        except (SpecUnsatisfiable, NoFairnessAssumptionExists):
            continue
        if out[1]:
            continue
        assert wl.certify(inp, out) == []
        sg, realizable, safe, combined, streett, fg, region, strategy, transducer = out
        # an extra fair edge breaks local minimality
        spare = sorted(set(safe.env_edges()) - combined.fair_edges)
        if spare:
            from omegagames.synthesis import Assumption, apply_fairness

            wider = Assumption(combined.safety_edges, combined.fair_edges | {spare[0]})
            fg2 = apply_fairness(safe, wider.fair_edges)
            region2, strategy2 = almost_sure_solve(fg2.graph, fg2.parity, 0)
            bad = (sg, realizable, safe, wider, streett, fg2, region2, strategy2, transducer)
            assert any("can be dropped" in e for e in wl.certify(inp, bad))
            widened += 1
        checked += 1
    assert widened
