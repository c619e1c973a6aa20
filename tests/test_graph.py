"""Game-graph model: validation, subgames, attractors, SCCs."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagames.benchgen import SplitMix64
from omegagames.errors import (
    DeadEndCreated,
    EnvDeadlocked,
    InvalidGame,
    RandomSupportBroken,
    StrategyIncomplete,
)
from omegagames.graph import (
    EXISTENTIAL,
    PLAYER0,
    PLAYER1,
    PROBABILISTIC,
    UNIVERSAL,
    GameGraph,
    attractor,
    build_game,
    explore,
    scc_decompose,
    subgame,
    validate_game,
)

from .conftest import sample_game


def test_minimal_legal_game():
    g = build_game([(PLAYER0, [0])])
    assert validate_game(g) == []


def test_support_rule_violation():
    from fractions import Fraction

    g = GameGraph(
        owners=(PROBABILISTIC, PLAYER0),
        succ=((1,), (1,)),
        given_weights={0: (Fraction(1, 2), Fraction(1, 2))},  # two weights, one edge
        labels=(None, None),
        initial=None,
    )
    violations = validate_game(g)
    assert len(violations) == 1
    assert violations[0].rule == "support-mismatch"
    assert violations[0].state == 0


def test_dead_end_violation():
    g = GameGraph(owners=(PLAYER0,), succ=((),), labels=(None,), initial=None)
    violations = validate_game(g)
    assert [v.rule for v in violations] == ["dead-end"]
    assert violations[0].state == 0


def test_duplicate_edge_and_bad_owner():
    g = GameGraph(owners=(7,), succ=((0, 0),), labels=(None,), initial=None)
    rules = {v.rule for v in validate_game(g)}
    assert rules == {"duplicate-edge", "bad-owner"}


@pytest.mark.parametrize(
    "states, kwargs, rule",
    [
        ([(PLAYER0,)], {}, "bad-entry"),
        ([(PLAYER0, 3)], {}, "bad-entry"),
        (7, {}, "bad-entry"),
        ([(PLAYER0, ["a"])], {}, "bad-target"),
        ([(0.5, [0])], {}, "bad-owner"),
        ([(PLAYER0, [0], 5)], {}, "bad-label"),
        ([(PROBABILISTIC, [0])], {"weights": {0: ["x"]}}, "bad-weight"),
        ([(PROBABILISTIC, [0])], {"weights": {0.0: [1]}}, "bad-weight"),
        ([(PROBABILISTIC, [0])], {"weights": [1]}, "bad-weight"),
        ([(PLAYER0, [0])], {"initial": "0"}, "bad-initial"),
    ],
)
def test_malformed_arguments_are_invalid_games(states, kwargs, rule):
    with pytest.raises(InvalidGame) as err:
        build_game(states, **kwargs)
    assert [v.rule for v in err.value.diagnostics] == [rule]


_scalar = (
    st.none() | st.booleans() | st.integers(-2, 4) | st.integers()
    | st.floats() | st.fractions() | st.text(max_size=3)
)
_value = st.recursive(
    _scalar,
    lambda inner: (
        st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.tuples(inner, inner, inner)
        | st.dictionaries(_scalar.filter(lambda x: x == x), inner, max_size=3)
    ),
    max_leaves=10,
)
_entry = st.tuples(st.integers(-1, 3) | _value, st.lists(st.integers(-1, 4) | _value, max_size=3)) | st.tuples(
    st.integers(0, 2), st.lists(st.integers(0, 3), max_size=3), st.none() | _value
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(_entry | _value, max_size=4) | _value,
    st.none() | st.dictionaries(st.integers(-1, 4) | _scalar.filter(lambda x: x == x), _value, max_size=3) | _value,
    st.none() | st.integers(-1, 4) | _value,
)
def test_build_game_raises_only_invalid_game(states, weights, initial):
    """Whatever the Python values, ``build_game`` returns a valid game or
    raises ``InvalidGame``."""
    try:
        g = build_game(states, initial=initial, weights=weights)
    except InvalidGame:
        return
    assert validate_game(g) == []


def test_subgame_identity():
    g = build_game([(PLAYER0, [1]), (PLAYER1, [0, 1])], initial=1)
    sub, index = subgame(g, range(g.n))
    assert index == {0: 0, 1: 1}
    assert sub.succ == g.succ and sub.owners == g.owners and sub.initial == 1


def test_subgame_chain():
    g = build_game([(PLAYER0, [1]), (PLAYER0, [2]), (PLAYER0, [2])])
    sub, index = subgame(g, {1, 2})
    assert index == {1: 0, 2: 1}
    assert sub.succ == ((1,), (1,))


def test_subgame_dead_end():
    g = build_game([(PLAYER0, [1]), (PLAYER0, [2]), (PLAYER0, [2])])
    with pytest.raises(DeadEndCreated):
        subgame(g, {0, 2})


def test_subgame_broken_support():
    g = build_game([(PROBABILISTIC, [1, 2]), (PLAYER0, [0]), (PLAYER0, [0])])
    with pytest.raises(RandomSupportBroken):
        subgame(g, {0, 1})


@pytest.mark.parametrize("keep", [[0, 99], [1, 2], [-1], [1, -1], [1, "0"]])
def test_subgame_rejects_non_states(keep):
    g = build_game([(PLAYER0, [1]), (PLAYER0, [1])])
    with pytest.raises(ValueError, match="is not a state of the game"):
        subgame(g, keep)


def test_subgame_keeps_weights():
    from fractions import Fraction

    g = build_game(
        [(PLAYER0, [1]), (PROBABILISTIC, [1, 2]), (PLAYER0, [1])],
        weights={1: [Fraction(1, 3), Fraction(2, 3)]},
    )
    sub, index = subgame(g, {1, 2})
    assert sub.weights(index[1]) == (Fraction(1, 3), Fraction(2, 3))


def test_derived_games_are_valid_by_construction():
    """Every game derived from a valid one passes validation, which is why
    only ``build_game`` validates; and probabilistic states keep their
    support and weights: the edges, and the given weights or uniform ones."""
    from fractions import Fraction

    from omegagames.benchgen import BenchSpec, random_game
    from omegagames.objectives import Rabin, Streett
    from omegagames.reductions import dual_game, lar_reduce, reduce_stochastic_parity
    from omegagames.solve import almost_sure_solve
    from omegagames.synthesis import apply_fairness, dpa_to_synthesis_game

    from .conftest import sample_pairs, sample_parity
    from .test_pipeline_random import random_dpa

    rng = SplitMix64(0xDE41)
    for case in range(240):
        two_player = case % 2 == 0
        g = sample_game(rng, owners=(PLAYER0, PLAYER1) if two_player else (PLAYER0, PLAYER1, PROBABILISTIC))
        given = {}
        if case % 4 == 3:
            given = {s: [Fraction(1 + rng.below(4), 5) for _ in g.succ[s]] for s in g.probabilistic_states}
            g = build_game([(g.owners[s], g.succ[s]) for s in range(g.n)], initial=0, weights=given)
        for s in g.probabilistic_states:
            assert g.support(s) == g.succ[s]
            k = len(g.succ[s])
            assert g.weights(s) == tuple(given.get(s, [Fraction(1, k)] * k))
        par = sample_parity(rng, g.n)
        pairs = sample_pairs(rng, g.n)
        products = [lar_reduce(g, Streett(pairs)), lar_reduce(g, Rabin(pairs))]
        for res in products:
            for idx in res.game.probabilistic_states:
                assert res.game.weights(idx) == g.weights(res.origin_map[idx])
        derived = [
            reduce_stochastic_parity(g, par).game,
            dual_game(g, par)[0],
            *(res.game for res in products),
            random_game(BenchSpec(g.n, g.n + rng.below(g.n), 3, "0.3", seed=case))[0],
        ]
        region, _ = almost_sure_solve(g, par, case % 4 // 2)
        if region.states:
            sub, index = subgame(g, region.states)
            for s in region.states & set(g.probabilistic_states):
                assert sub.weights(index[s]) == g.weights(s)
            derived.append(sub)
        sg = dpa_to_synthesis_game(random_dpa(rng, wide=True))
        edges = sg.env_edges()
        derived.append(apply_fairness(sg, [e for e in edges if rng.below(2)]).graph)
        # sometimes every edge of a state, which is kept when unreachable
        emptied = {q for q in range(sg.n_env) if rng.below(4) == 0}
        drop = [(q, i) for q, i in edges if q in emptied or rng.below(3) == 0]
        try:
            derived.append(sg.remove_env_edges(drop).graph)
        except EnvDeadlocked:
            pass
        # built from columns: one label per state even from a source built
        # with labels=(), and the gadget shares the rows it leaves unchanged
        bare = GameGraph(g.owners, g.succ, g.given_weights, (), g.initial)
        from_bare = [lar_reduce(bare, Streett(pairs)).game]
        if not g.is_two_player:
            gadget = reduce_stochastic_parity(bare, par).game
            assert all(gadget.succ[s] is g.succ[s] for s in range(g.n) if g.owners[s] != PROBABILISTIC)
            from_bare.append(gadget)
        if region.states:
            from_bare.append(subgame(bare, region.states)[0])
        for d in from_bare:
            assert len(d.labels) == d.n
            assert [d.label(s) for s in range(d.n)] == [None] * d.n
        for d in derived + from_bare:
            assert validate_game(d) == [], case


def test_attractor_whole_state_space():
    g = build_game([(PLAYER0, [1]), (PLAYER1, [0])])
    region, _ = attractor(g, 0, [0, 1])
    assert region == frozenset({0, 1})


def test_attractor_example_both_players():
    # a (P0) -> {b, c};  b (P1) -> {b};  c -> {c}
    g = build_game([(PLAYER0, [1, 2]), (PLAYER1, [1]), (PLAYER0, [2])])
    region0, strat0 = attractor(g, 0, [2])
    assert region0 == frozenset({0, 2})
    assert strat0.choice(0) == 2
    region1, _ = attractor(g, 1, [2])
    assert region1 == frozenset({2})  # a escapes via b


def test_attractor_random_modes():
    # probabilistic state with support {good, bad}
    g = build_game([(PROBABILISTIC, [1, 2]), (PLAYER0, [1]), (PLAYER0, [2])])
    existential, _ = attractor(g, 0, [1], random_mode=EXISTENTIAL)
    assert 0 in existential
    universal, _ = attractor(g, 0, [1], random_mode=UNIVERSAL)
    assert 0 not in universal


def test_attractor_requires_mode_on_stochastic_games():
    g = build_game([(PROBABILISTIC, [0])])
    with pytest.raises(ValueError):
        attractor(g, 0, [0])


def _attractor_fixpoint(game, player, target, mode):
    """Reference attractor: naive iteration straight from the definition."""
    region = set(target)
    changed = True
    while changed:
        changed = False
        for s in range(game.n):
            if s in region:
                continue
            succ = game.succ[s]
            owner = game.owners[s]
            if owner == player or (owner == PROBABILISTIC and mode == EXISTENTIAL):
                hit = any(t in region for t in succ)
            else:
                hit = all(t in region for t in succ)
            if hit:
                region.add(s)
                changed = True
    return frozenset(region)


def test_attractor_matches_naive_fixpoint():
    rng = SplitMix64(99)
    for _ in range(200):
        g = sample_game(rng)
        targets = [s for s in range(g.n) if rng.below(3) == 0]
        for player in (0, 1):
            for mode in (EXISTENTIAL, UNIVERSAL):
                fast, _ = attractor(g, player, targets, random_mode=mode)
                assert fast == _attractor_fixpoint(g, player, targets, mode)


def test_attractor_monotone_and_idempotent():
    rng = SplitMix64(7)
    for _ in range(100):
        g = sample_game(rng)
        t1 = [s for s in range(g.n) if rng.below(4) == 0]
        t2 = sorted(set(t1) | {s for s in range(g.n) if rng.below(4) == 0})
        a1, _ = attractor(g, 0, t1, random_mode=EXISTENTIAL)
        a2, _ = attractor(g, 0, t2, random_mode=EXISTENTIAL)
        assert a1 <= a2
        again, _ = attractor(g, 0, sorted(a1), random_mode=EXISTENTIAL)
        assert again == a1


def test_attractor_complement_is_trap():
    rng = SplitMix64(21)
    for _ in range(100):
        g = sample_game(rng)
        targets = [s for s in range(g.n) if rng.below(3) == 0]
        for player in (0, 1):
            region, _ = attractor(g, player, targets, random_mode=EXISTENTIAL)
            outside = set(range(g.n)) - region
            for s in outside:
                succ = g.succ[s]
                if g.owners[s] == player:
                    assert all(t in outside for t in succ)
                elif g.owners[s] == PROBABILISTIC:
                    assert all(t in outside for t in succ)  # support stays outside
                else:
                    assert any(t in outside for t in succ)


def test_attractor_strategy_rank_decreasing():
    rng = SplitMix64(5)
    for _ in range(50):
        g = sample_game(rng)
        targets = sorted({s for s in range(g.n) if rng.below(3) == 0})
        region, strat = attractor(g, 0, targets, random_mode=EXISTENTIAL)
        # fixpoint ranks: iteration at which each state joins the attractor
        rank = {s: 0 for s in targets if s in region}
        level = 0
        while len(rank) < len(region):
            level += 1
            added = []
            for s in sorted(region - set(rank)):
                succ = g.succ[s]
                if g.owners[s] in (PLAYER0, PROBABILISTIC):
                    if any(t in rank for t in succ):
                        added.append(s)
                elif all(t in rank for t in succ):
                    added.append(s)
            assert added, "attractor contains a state the fixpoint never adds"
            for s in added:
                rank[s] = level
        for s in strat.domain():
            assert g.owners[s] == PLAYER0 and s in region and s not in targets
            assert rank[strat.choice(s)] < rank[s]


def test_subgame_roundtrip_identity():
    rng = SplitMix64(13)
    for _ in range(100):
        g = sample_game(rng)
        keep = set(range(g.n))
        sub, index = subgame(g, keep)
        inverse = {v: k for k, v in index.items()}
        assert sorted(inverse) == list(range(sub.n))
        for new, old in inverse.items():
            assert sub.owners[new] == g.owners[old]
            assert tuple(index[t] for t in g.succ[old]) == sub.succ[new]
            assert sub.label(new) == g.label(old)


def test_scc_self_loop():
    g = build_game([(PLAYER0, [0])])
    comps = scc_decompose(g)
    assert len(comps) == 1 and comps[0].nontrivial and comps[0].states == (0,)


def test_scc_two_cycle():
    g = build_game([(PLAYER0, [1]), (PLAYER0, [0])])
    comps = scc_decompose(g)
    assert len(comps) == 1 and comps[0].states == (0, 1) and comps[0].nontrivial


def test_scc_chain_reverse_topological():
    g = build_game([(PLAYER0, [1]), (PLAYER0, [2]), (PLAYER0, [2])])
    comps = scc_decompose(g)
    assert [c.states for c in comps] == [(2,), (1,), (0,)]
    assert [c.nontrivial for c in comps] == [True, False, False]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_scc_partitions_states(seed):
    g = sample_game(SplitMix64(seed), max_states=8)
    comps = scc_decompose(g)
    flat = sorted(s for comp in comps for s in comp.states)
    assert flat == list(range(g.n))
    # reverse topological: edges out of a component only target earlier ones
    comp_of = {}
    for k, comp in enumerate(comps):
        for s in comp.states:
            comp_of[s] = k
    for s in range(g.n):
        for t in g.succ[s]:
            assert comp_of[t] <= comp_of[s]


def test_explore_numbers_roots_then_discoveries():
    """Roots first in order (a repeated root once), then keys in the order
    they are discovered; one row per key, aligned with the numbers."""
    edges = {"a": "ca", "b": "dc", "c": "e", "d": "", "e": "b"}
    expanded = []

    def expand(key, intern):
        expanded.append(key)
        return [intern(t) for t in edges[key]]

    index, rows = explore(["b", "a", "b"], expand)
    assert list(index.items()) == [("b", 0), ("a", 1), ("d", 2), ("c", 3), ("e", 4)]
    assert expanded == list(index)
    # a interns itself and gets its own number back
    assert rows == [[2, 3], [3, 1], [], [4], [0]]

    def stuck(key, intern):
        if key == "c":
            raise StrategyIncomplete("no choice at c")
        return [intern(t) for t in edges[key]]

    with pytest.raises(StrategyIncomplete):
        explore(["a"], stuck)
