"""Solvers: Zielonka, cooperative regions, the almost-sure pipeline and its
brute-force oracle."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import omegagames.graph
import omegagames.solve
from omegagames import _kernels
from omegagames.benchgen import SplitMix64
from omegagames.errors import NotDeterministicGame, TooLarge, TypeMismatch
from omegagames.graph import PLAYER0, PLAYER1, PROBABILISTIC, _tarjan, build_game, validate_game
from omegagames.objectives import Parity, Rabin, Streett, complement
from omegagames.pgsolver import export_pgsolver
from omegagames.reductions import dual_game, lar_reduce, reduce_stochastic_parity, reduction_chain
from omegagames.solve import (
    almost_sure_solve,
    cooperative_region,
    oracle_solve,
    zielonka_solve,
)

from .conftest import (
    child_env,
    sample_game,
    sample_pairs,
    sample_parity,
    strategy_wins_almost_surely,
)
from .reference_gadget import global_gadget


def test_zielonka_single_even_loop():
    g = build_game([(PLAYER0, [0])])
    w0, w1, s0, s1 = zielonka_solve(g, Parity((0,)))
    assert w0.states == frozenset({0}) and not w1.states
    assert s0.choice(0) == 0


def test_zielonka_single_odd_loop():
    g = build_game([(PLAYER0, [0])])
    w0, w1, _, _ = zielonka_solve(g, Parity((1,)))
    assert w1.states == frozenset({0}) and not w0.states


def test_zielonka_rejects_stochastic_games():
    g = build_game([(PROBABILISTIC, [0])])
    with pytest.raises(NotDeterministicGame):
        zielonka_solve(g, Parity((0,)))


def test_determinacy_partition_random():
    rng = SplitMix64(0xDEA1)
    for _ in range(300):
        g = sample_game(rng, max_states=9, owners=(PLAYER0, PLAYER1))
        par = sample_parity(rng, g.n)
        w0, w1, _, _ = zielonka_solve(g, par)
        assert w0.states | w1.states == set(range(g.n))
        assert not (w0.states & w1.states)


def test_zielonka_strategies_win(rng):
    for _ in range(120):
        g = sample_game(rng, max_states=6, owners=(PLAYER0, PLAYER1))
        par = sample_parity(rng, g.n)
        w0, w1, s0, s1 = zielonka_solve(g, par)
        assert strategy_wins_almost_surely(g, par, 0, w0, s0)
        assert strategy_wins_almost_surely(g, complement(par), 1, w1, s1)


def test_cooperative_examples():
    g = build_game([(PLAYER0, [0])])
    assert 0 in cooperative_region(g, Parity((0,)))
    assert 0 not in cooperative_region(g, Parity((1,)))
    # a (priority 1) -> b (priority 0) -> b: both states cooperative
    g2 = build_game([(PLAYER0, [1]), (PLAYER1, [1])])
    assert sorted(cooperative_region(g2, Parity((1, 0))).states) == [0, 1]


def test_cooperative_matches_lasso_enumeration(rng):
    import itertools

    from omegagames.objectives import Lasso, accepts_lasso

    for _ in range(60):
        g = sample_game(rng, max_states=5, owners=(PLAYER0, PLAYER1))
        par = sample_parity(rng, g.n)
        region = cooperative_region(g, par).states
        # reference: enumerate all simple lassos (stem+cycle of distinct states)
        expected = set()
        for s in range(g.n):
            for perm_len in range(1, g.n + 1):
                for walk in itertools.permutations(range(g.n), perm_len):
                    if walk[0] != s:
                        continue
                    if any(walk[k + 1] not in g.succ[walk[k]] for k in range(len(walk) - 1)):
                        continue
                    for back in range(len(walk)):
                        if walk[back] in g.succ[walk[-1]]:
                            lasso = Lasso(walk[:back], walk[back:])
                            if accepts_lasso(par, lasso):
                                expected.add(s)
        assert region == expected


def test_cooperative_matches_end_components(kernel_name, monkeypatch):
    """Parity, Streett and Rabin cooperative regions come from one SCC
    refinement, never from the record product; reference: the states that
    can reach a strongly connected set the objective accepts."""
    from omegagames.solve import _can_reach, _end_components

    def no_product(*args):
        raise AssertionError("cooperative_region built the record product")

    monkeypatch.setattr(omegagames.reductions, "lar_reduce", no_product)
    rng = SplitMix64(0xC00B)
    with _kernels.using(kernel_name):
        for trial in range(300):
            g = sample_game(rng, max_states=7, owners=(PLAYER0, PLAYER1))
            if trial % 3 == 0:
                obj = sample_parity(rng, g.n, priorities=5)
            else:
                pairs = sample_pairs(rng, g.n, max_pairs=3)
                obj = Streett(pairs) if trial % 3 == 1 else Rabin(pairs)
            good = set()
            for comp in _end_components(g.n, g.succ, [True] * g.n):
                if obj.accepts_inf(comp):
                    good |= comp
            assert cooperative_region(g, obj).states == _can_reach(g.n, g.succ, good)


def test_cooperative_chain_takes_one_decomposition(kernel_name, monkeypatch):
    """On the chain where state s has priority s, a self-loop and an edge
    to s+1, one decomposition settles every SCC; a pass per even priority
    would make 1,000."""
    calls = []

    def counted(succ, enabled):
        calls.append(1)
        return _tarjan(succ, enabled)

    for module in (omegagames.graph, omegagames.solve):
        monkeypatch.setattr(module, "_tarjan", counted)
    n = 2000
    g = build_game([(s % 2, [s, s + 1] if s + 1 < n else [s]) for s in range(n)])
    with _kernels.using(kernel_name):
        region = cooperative_region(g, Parity(tuple(range(n))))
    assert region.states == frozenset(range(n - 1))
    assert len(calls) <= 2


@pytest.mark.parametrize("objective, expected", [(Streett, {0, 1}), (Rabin, set())])
def test_cooperative_without_pairs_is_all_or_nothing(kernel_name, objective, expected):
    """A Streett objective without pairs holds on every play, a Rabin one
    on none."""
    g = build_game([(PLAYER0, [1]), (PLAYER1, [1])])
    with _kernels.using(kernel_name):
        assert cooperative_region(g, objective([])).states == expected


# Objectives that do not fit the 2-state game of ``_fit_game``, and the
# error each entry raises for them, in this order.  A pairless Rabin
# objective fits every game: ``None`` marks the entries that answer it.
BAD_OBJECTIVES = {
    "parity of the wrong length": Parity((0, 0, 0)),
    "pair state n": Streett([({2}, set())]),
    "pair state -1": Rabin([(set(), {-1})]),
    "non-int pair state": Streett([({0}, {"1"})]),
    "pairless": Rabin([]),
    "None": None,
}
_PARITY_ONLY = [ValueError, TypeError, TypeError, TypeError, TypeError, TypeError]
_ANY = [ValueError, ValueError, ValueError, ValueError, None, TypeError]
OBJECTIVE_ENTRIES = {
    "zielonka_solve": (zielonka_solve, _PARITY_ONLY),
    "reduce_stochastic_parity": (reduce_stochastic_parity, _PARITY_ONLY),
    "export_pgsolver": (export_pgsolver, [ValueError] + [TypeMismatch] * 5),
    "lar_reduce": (lar_reduce, [TypeError, ValueError, ValueError, ValueError, None, TypeError]),
    "cooperative_region": (cooperative_region, _ANY),
    "almost_sure_solve player 0": (lambda g, obj: almost_sure_solve(g, obj, PLAYER0), _ANY),
    "almost_sure_solve player 1": (lambda g, obj: almost_sure_solve(g, obj, PLAYER1), _ANY),
    "reduction_chain": (lambda g, obj: reduction_chain(g, obj)[-1], _ANY),
}


def _fit_game():
    return build_game([(PLAYER0, [1]), (PLAYER1, [1])])


@pytest.mark.parametrize("entry", OBJECTIVE_ENTRIES)
@pytest.mark.parametrize("bad", BAD_OBJECTIVES)
def test_every_entry_rejects_an_objective_that_does_not_fit(kernel_name, entry, bad):
    fn, errors = OBJECTIVE_ENTRIES[entry]
    error = errors[list(BAD_OBJECTIVES).index(bad)]
    with _kernels.using(kernel_name):
        if error is None:
            fn(_fit_game(), BAD_OBJECTIVES[bad])
            return
        with pytest.raises(error) as caught:
            fn(_fit_game(), BAD_OBJECTIVES[bad])
    assert type(caught.value) is error


@pytest.mark.parametrize("player", [PLAYER0, PLAYER1])
def test_negative_pair_state_is_not_read_from_the_end(kernel_name, player):
    """State -1 used to be read as the last state, so the objective was
    solved on the wrong pair instead of being refused."""
    g = _fit_game()
    streett = Streett([({-1}, set())])
    with _kernels.using(kernel_name):
        with pytest.raises(ValueError):
            almost_sure_solve(g, streett, player)
        with pytest.raises(ValueError):
            cooperative_region(g, streett)


def test_markov_chain_examples():
    even = build_game([(PROBABILISTIC, [0])])
    assert 0 in almost_sure_solve(even, Parity((0,)), 0)[0]
    odd = build_game([(PROBABILISTIC, [0])])
    assert 0 not in almost_sure_solve(odd, Parity((1,)), 0)[0]
    fork = build_game(
        [(PROBABILISTIC, [1, 2]), (PROBABILISTIC, [1]), (PROBABILISTIC, [2])]
    )
    assert 0 not in almost_sure_solve(fork, Parity((1, 0, 1)), 0)[0]


def test_oracle_trivial_and_bound():
    g = build_game([(PLAYER0, [0])])
    assert oracle_solve(g, Parity((0,)), 0).states == frozenset({0})
    big = build_game([(PLAYER0, [s]) for s in range(11)])
    with pytest.raises(TooLarge):
        oracle_solve(big, Parity((0,) * 11), 0)


def test_gadget_example_almost_sure_and_oracle():
    # v probabilistic (priority 3) -> {a, b}; a (P1, 0) -> v; b (P1, 1) -> v
    g = build_game([(PROBABILISTIC, [1, 2]), (PLAYER1, [0]), (PLAYER1, [0])])
    par = Parity((3, 0, 1))
    region, strategy = almost_sure_solve(g, par, 0)
    assert region.states == frozenset({0, 1, 2})
    assert oracle_solve(g, par, 0).states == region.states
    # player 0 owns nothing, so the witness has an empty choice set
    assert strategy.domain() == frozenset()
    # raising a's priority to 2 makes the fair minimum odd
    par2 = Parity((3, 2, 1))
    region2, _ = almost_sure_solve(g, par2, 0)
    assert region2.states == oracle_solve(g, par2, 0).states == frozenset()


def test_two_player_input_equals_zielonka(rng):
    for _ in range(100):
        g = sample_game(rng, owners=(PLAYER0, PLAYER1))
        par = sample_parity(rng, g.n)
        w0, w1, _, _ = zielonka_solve(g, par)
        r0, _ = almost_sure_solve(g, par, 0)
        r1, _ = almost_sure_solve(g, par, 1)
        assert r0.states == w0.states and r1.states == w1.states


def test_almost_sure_matches_oracle_parity():
    rng = SplitMix64(0x0AC1E)
    for _ in range(250):
        g = sample_game(rng, max_states=6)
        par = sample_parity(rng, g.n)
        for player in (0, 1):
            fast, strategy = almost_sure_solve(g, par, player)
            assert fast.states == oracle_solve(g, par, player).states
            rel = par if player == 0 else complement(par)
            assert strategy_wins_almost_surely(g, rel, player, fast, strategy)


def test_almost_sure_matches_oracle_rabin_streett():
    rng = SplitMix64(0x0B5E55)
    for trial in range(80):
        owners = (PLAYER0, PLAYER1) if trial % 2 else (PLAYER0, PLAYER1, PROBABILISTIC)
        g = sample_game(rng, max_states=5, owners=owners)
        pairs = sample_pairs(rng, g.n)
        for obj in (Streett(pairs), Rabin(pairs)):
            for player in (0, 1):
                fast, strategy = almost_sure_solve(g, obj, player)
                assert fast.states == oracle_solve(g, obj, player).states
                rel = obj if player == 0 else complement(obj)
                assert strategy_wins_almost_surely(g, rel, player, fast, strategy)


def test_almost_sure_matches_oracle_with_three_pairs():
    rng = SplitMix64(0x1DA3)
    for trial in range(100):
        owners = (PLAYER0, PLAYER1) if trial % 2 else (PLAYER0, PLAYER1, PROBABILISTIC)
        g = sample_game(rng, max_states=7, owners=owners)
        pairs = [
            ({s for s in range(g.n) if rng.below(3) == 0}, {s for s in range(g.n) if rng.below(3) == 0})
            for _ in range(3)
        ]
        for obj in (Streett(pairs), Rabin(pairs)):
            for player in (0, 1):
                fast, strategy = almost_sure_solve(g, obj, player)
                assert fast.states == oracle_solve(g, obj, player).states
                rel = obj if player == 0 else complement(obj)
                assert strategy_wins_almost_surely(g, rel, player, fast, strategy)


def test_almost_sure_without_pairs_matches_oracle(kernel_name):
    """Streett and Rabin objectives without pairs are answered like any
    other: a Streett one holds on every play, a Rabin one on none."""
    rng = SplitMix64(0x0FA1)
    with _kernels.using(kernel_name):
        for trial in range(60):
            owners = (PLAYER0, PLAYER1) if trial % 2 else (PLAYER0, PLAYER1, PROBABILISTIC)
            g = sample_game(rng, max_states=6, owners=owners)
            for obj in (Streett([]), Rabin([])):
                for player in (PLAYER0, PLAYER1):
                    fast, strategy = almost_sure_solve(g, obj, player)
                    assert fast.states == oracle_solve(g, obj, player).states
                    assert len(fast.states) in (0, g.n)
                    rel = obj if player == PLAYER0 else complement(obj)
                    assert strategy_wins_almost_surely(g, rel, player, fast, strategy)


def test_streett_opponent_memory_regression():
    """The Streett side of a Rabin game can need memory: with pairs
    ({1},{2}) and ({0,1},{1}) the opponent only wins by alternating, so a
    memoryless-opponent enumeration would wrongly award everything to the
    Rabin player."""
    g = build_game(
        [(PLAYER1, [2, 1, 0]), (PLAYER1, [0, 1]), (PLAYER0, [1, 2, 0])], initial=0
    )
    obj = Rabin([({1}, {2}), ({0, 1}, {1})])
    fast, _ = almost_sure_solve(g, obj, 0)
    slow = oracle_solve(g, obj, 0)
    assert fast.states == slow.states == frozenset()


def test_ec_oracle_agrees_with_parity_oracle_on_buchi_encodings():
    """Buchi and coBuchi conditions are expressible as parity, Rabin and
    Streett objectives at once; the independent oracle formulations
    (strategy enumeration vs end components) must coincide on them."""
    from omegagames.objectives import buchi_parity, cobuchi_parity

    rng = SplitMix64(0xB0CC)
    for _ in range(100):
        g = sample_game(rng, max_states=6)
        n = g.n
        accepting = {s for s in range(n) if rng.below(2)}
        encodings = [
            (buchi_parity(accepting, n), Streett([(set(range(n)), accepting)])),
            (buchi_parity(accepting, n), Rabin([(accepting, set())])),
            (
                cobuchi_parity(accepting, n),
                Rabin([(set(range(n)), set(range(n)) - accepting)]),
            ),
            (
                cobuchi_parity(accepting, n),
                Streett([(set(range(n)) - accepting, set())]),
            ),
        ]
        for par, rs in encodings:
            for player in (0, 1):
                assert (
                    oracle_solve(g, rs, player).states
                    == oracle_solve(g, par, player).states
                )


def test_almost_sure_region_support_closure(rng):
    for _ in range(120):
        g = sample_game(rng)
        par = sample_parity(rng, g.n)
        region, _ = almost_sure_solve(g, par, 0)
        for s in region.states:
            if g.owners[s] == PROBABILISTIC:
                assert set(g.support(s)) <= region.states


def test_weights_never_read_after_validation():
    """Only ``build_game`` validates, so replacing the weight accessor
    after validation proves no algorithm touches weights."""
    g = build_game([(PROBABILISTIC, [1, 2]), (PLAYER1, [0]), (PLAYER1, [0])])
    par = Parity((3, 0, 1))
    assert validate_game(g) == []
    import omegagames.graph as graph_mod

    original = graph_mod.GameGraph.weights
    def trap(self, s):
        raise AssertionError("solver read distribution weights")
    graph_mod.GameGraph.weights = trap
    try:
        region, _ = almost_sure_solve(g, par, 0)
    finally:
        graph_mod.GameGraph.weights = original
    assert region.states == frozenset({0, 1, 2})


def test_weight_values_do_not_change_regions(rng):
    from fractions import Fraction

    for _ in range(60):
        g = sample_game(rng)
        par = sample_parity(rng, g.n)
        base, _ = almost_sure_solve(g, par, 0)
        reweighted = build_game(
            [
                (g.owners[s], list(g.succ[s]), g.label(s))
                for s in range(g.n)
            ],
            initial=g.initial,
            weights={
                s: [Fraction(1 + rng.below(9), 10) for _ in g.succ[s]]
                for s in range(g.n)
                if g.owners[s] == PROBABILISTIC
            },
        )
        other, _ = almost_sure_solve(reweighted, par, 0)
        assert other.states == base.states


def _load_certify():
    """``perfbench/certify.py``, loaded by path: the benchmark's own
    checker judges the witnesses."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "certify.py"
    spec = importlib.util.spec_from_file_location("perfbench_certify", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def witness_violations(certify, g, obj, player, region, strategy):
    """Certify a finite-memory almost-sure witness in a 2.5-player game.

    In the product of ``g`` with the strategy's memory
    (``certify.strategy_product``), plays from the region must stay in it,
    and every end component, where the opponent picks some edges and a
    probabilistic state keeps all of its, must satisfy ``player``'s
    objective.  Streett: no end component may avoid R_k and meet Q_k.  Rabin: no end
    component may satisfy the Streett pairs, refined as in
    ``certify.streett_cycle`` but on end components."""
    errors, states, edges = certify.strategy_product(g.owners, g.succ, player, region, strategy)
    if errors:
        return errors[:5]
    n = len(states)
    controlled = [g.owners[s] == 1 - player for s in states]

    def end_components(active):
        return certify.maximal_end_components(n, edges, controlled, active)

    if player == PLAYER1:
        obj = complement(obj)
    if isinstance(obj, Streett):
        for k, (q, r) in enumerate(obj.pairs):
            for comp in end_components([s not in r for s in states]):
                if any(states[v] in q for v in comp):
                    errors.append(f"an end component meets Q_{k} and avoids R_{k}")
        return errors
    work = [[True] * n]
    while work:
        for comp in end_components(work.pop()):
            seen = {states[v] for v in comp}
            broken = [q for q, r in obj.pairs if seen & q and not seen & r]
            if not broken:
                return [f"an end component through game state {states[comp[0]]} "
                        "satisfies the Streett pairs"]
            inside = set(comp)
            work.append([v in inside and not any(states[v] in q for q in broken)
                         for v in range(n)])
    return []


def _reference_region(g, obj, player):
    """``player``'s almost-sure region of ``g``: player 0's region of
    Zielonka on the reference gadget (arms up to E* at every probabilistic
    state, no priority compression) of the game, its dual for player 1,
    and its record product for Rabin/Streett."""
    game, goal = (g, obj) if player == PLAYER0 else dual_game(g, obj)
    if not isinstance(goal, Parity):
        product = lar_reduce(game, goal)
        game, goal = product.game, product.parity
    w0, _, _, _ = zielonka_solve(*global_gadget(game, goal))
    return {s for s in w0.states if s < g.n}


def test_almost_sure_matches_the_reference_gadget(kernel_name):
    """Both players' regions equal ``_reference_region`` on 2,000 seeded
    2.5-player parity games of 2-13 states, half with dense priorities
    0..d-1 and half with values spread over 0..40, and on 1,200 Streett
    and Rabin games of 2-8 states with 1-3 pairs.  Every memoryless parity
    witness passes the benchmark's almost-sure certificate, and every
    finite-memory witness the end-component check ``witness_violations``."""
    certify = _load_certify()
    rng = SplitMix64(0x6AD6E7)
    owners = (PLAYER0, PLAYER1, PROBABILISTIC)
    with _kernels.using(kernel_name):
        trial = 0
        while trial < 3200:
            g = sample_game(rng, max_states=13 if trial < 2000 else 8, owners=owners)
            if g.is_two_player:
                continue
            trial += 1
            if trial > 2000:
                obj = (Streett if trial % 2 else Rabin)(sample_pairs(rng, g.n, max_pairs=3))
            elif trial % 2:
                obj = Parity(tuple(rng.below(41) for _ in range(g.n)))
            else:
                obj = sample_parity(rng, g.n, priorities=1 + rng.below(6))
            for player in (PLAYER0, PLAYER1):
                region, strategy = almost_sure_solve(g, obj, player)
                assert region.states == _reference_region(g, obj, player)
                if isinstance(obj, Parity):
                    choice = {s: t for (_m, s), t in strategy.choices.items()}
                    assert certify.check_almost_sure(
                        g.owners, g.succ, obj.priorities, player, region.states, choice
                    ) == []
                else:
                    assert witness_violations(
                        certify, g, obj, player, region.states, strategy
                    ) == []


# Solves the 3-state 2.5-player game with priorities (0, 2 * 10**9, 1)
# for both players with the address space capped at 512 MB, and prints
# the regions, or the error as the command line would.
CAPPED_SPARSE_SOLVE = """
import resource, sys
cap = 512 << 20
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
from omegagames.errors import OmegagamesError
from omegagames.graph import PLAYER0, PLAYER1, PROBABILISTIC, build_game
from omegagames.objectives import Parity
from omegagames.solve import almost_sure_solve
g = build_game([(PLAYER0, [1]), (PROBABILISTIC, [0, 2]), (PLAYER1, [1])])
try:
    for player in (0, 1):
        region, _ = almost_sure_solve(g, Parity((0, 2 * 10**9, 1)), player)
        print(f"winningRegion {player} = {region}")
except OmegagamesError as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)
"""


def test_sparse_huge_priority_in_a_gadget_solves_at_once():
    """A probabilistic state of priority 2 * 10**9 once needed 10**9 + 1
    gadget arms; the kernel now solves the game with no gadget, and the
    child answers under its 512 MB cap."""
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_SPARSE_SOLVE],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (
        0, "winningRegion 0 = {0, 1, 2}\nwinningRegion 1 = {}\n"
    ), proc.stderr


def test_priority_above_the_kernel_bound_is_refused_with_or_without_chance():
    """The solver keeps the values of both kinds of game, so a value above
    2**31 - 1 is refused whether or not a state is probabilistic."""
    par = Parity((0, 2**33, 1))
    for middle in (PLAYER1, PROBABILISTIC):
        g = build_game([(PLAYER0, [1]), (middle, [0, 2]), (PLAYER1, [1])])
        for player in (PLAYER0, PLAYER1):
            with pytest.raises(TooLarge, match=f"priority {2**33 + player} is above {2**31 - 1}"):
                almost_sure_solve(g, par, player)
