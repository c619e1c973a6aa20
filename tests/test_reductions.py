"""Reductions: the probabilistic-state gadget, the record product, pullbacks."""
import gc
import hashlib
import itertools
import weakref
from dataclasses import replace
from math import factorial

import pytest

from omegagames import _kernels, graph, reductions
from omegagames.benchgen import SplitMix64
from omegagames.errors import UndefinedOnRegion
from omegagames.graph import PLAYER0, PLAYER1, PROBABILISTIC, build_game, validate_game
from omegagames.objectives import Lasso, Parity, Rabin, Streett, accepts_lasso
from omegagames.reductions import (
    dual_game,
    even_ceiling,
    lar_reduce,
    lift_lasso,
    priority_ranks,
    pullback_strategy,
    reduce_stochastic_parity,
    reduction_chain,
)
from omegagames.solve import almost_sure_solve, zielonka_solve
from omegagames.strategies import MEMORYLESS, Strategy

from .conftest import sample_game, sample_lasso, sample_pairs, sample_parity


def test_reduce_without_probabilistic_states_is_identity():
    g = build_game([(PLAYER0, [1]), (PLAYER1, [0])], initial=0)
    res = reduce_stochastic_parity(g, Parity((0, 1)))
    assert res.game is g and res.kind == "identity"
    assert res.lift({0, 1}) == {0, 1} and res.lift({1}) == {1}


def test_gadget_shape_and_size_bound():
    rng = SplitMix64(0x9AD9E7)
    for _ in range(60):
        g = sample_game(rng)
        par = sample_parity(rng, g.n)
        res = reduce_stochastic_parity(g, par)
        assert validate_game(res.game) == []
        assert res.game.is_two_player
        arms = sum(even_ceiling(par.priorities[s]) // 2 + 1 for s in g.probabilistic_states)
        assert res.game.n == g.n + 3 * arms
        # copies keep their indices, owners and priorities
        for s in range(g.n):
            assert res.parity.priorities[s] == par.priorities[s]
            if g.owners[s] != PROBABILISTIC:
                assert res.game.owners[s] == g.owners[s]
                assert res.game.succ[s] == g.succ[s]
            else:
                assert res.game.owners[s] == PLAYER0  # announcement state


def test_dual_game_swaps_owners_and_shifts_priorities():
    g = build_game([(PLAYER0, [1]), (PLAYER1, [0]), (PROBABILISTIC, [0, 1])], initial=1)
    dual, obj = dual_game(g, Parity((0, 1, 2)))
    assert dual.owners == (PLAYER1, PLAYER0, PROBABILISTIC)
    assert obj.priorities == (1, 2, 3)
    assert dual.support(2) == g.support(2)


def test_lar_without_pairs_has_one_record_and_one_priority():
    """No pairs: one record per state, priority 0 for Streett (every play
    wins) and 1 for Rabin (none does)."""
    g = build_game([(PLAYER0, [0, 1]), (PROBABILISTIC, [0, 1])])
    for obj, priority in ((Streett([]), 0), (Rabin([]), 1)):
        res = lar_reduce(g, obj)
        assert res.game.n == g.n and res.memory_map == ((), ())
        assert res.parity.priorities == (priority, priority)


def test_lar_single_state_request_response():
    g = build_game([(PLAYER0, [0])])
    res = lar_reduce(g, Streett([({0}, {0})]))
    assert accepts_lasso(res.parity, lift_lasso(res, Lasso((), (0,))))
    res2 = lar_reduce(g, Streett([({0}, set())]))
    assert not accepts_lasso(res2.parity, lift_lasso(res2, Lasso((), (0,))))


def test_lar_single_color_memory_collapses():
    g = build_game([(PLAYER0, [1]), (PLAYER0, [0])])
    res = lar_reduce(g, Streett([({0, 1}, {0, 1})]))
    assert res.game.n == g.n  # one pair, one record
    strat = pullback_strategy(res, Strategy(0, choices={(MEMORYLESS, 0): 1, (MEMORYLESS, 1): 0}))
    assert strat.memory_size == 1


def test_lar_keeps_probabilistic_states_probabilistic():
    g = build_game([(PROBABILISTIC, [0, 1]), (PLAYER1, [0])])
    res = lar_reduce(g, Rabin([({0}, {1})]))
    assert validate_game(res.game) == []
    assert not res.game.is_two_player
    for idx in range(res.game.n):
        assert res.game.owners[idx] == g.owners[res.origin_map[idx]]


def test_lar_lasso_equivalence_random():
    rng = SplitMix64(0x1A55)
    for _ in range(150):
        g = sample_game(rng, max_states=5, owners=(PLAYER0, PLAYER1))
        pairs = sample_pairs(rng, g.n)
        r_init = tuple(range(len(pairs)))
        for obj in (Streett(pairs), Rabin(pairs)):
            res = lar_reduce(g, obj)
            # originals keep their indices, paired with the initial record
            for s in range(g.n):
                assert res.origin_map[s] == s and res.memory_map[s] == r_init
            for _ in range(4):
                lasso = sample_lasso(rng, g)
                assert accepts_lasso(obj, lasso) == accepts_lasso(
                    res.parity, lift_lasso(res, lasso)
                )


def test_lar_product_within_n_times_k_factorial():
    rng = SplitMix64(0x1A5F)
    for trial in range(40):
        n = 20 + rng.below(21)
        owners = (PLAYER0, PLAYER1, PROBABILISTIC)[: 2 + trial % 2]
        g = build_game(
            [(owners[rng.below(len(owners))], sorted({rng.below(n) for _ in range(3)}))
             for _ in range(n)]
        )
        pairs = sample_pairs(rng, n, max_pairs=3)
        for obj in (Streett(pairs), Rabin(pairs)):
            assert lar_reduce(g, obj).game.n <= n * factorial(len(pairs))


def test_lar_one_pair_is_memoryless():
    rng = SplitMix64(0x1A60)
    for trial in range(60):
        g = sample_game(rng, max_states=8, owners=(PLAYER0, PLAYER1, PROBABILISTIC)[: 2 + trial % 2])
        pairs = sample_pairs(rng, g.n, max_pairs=1)
        for obj in (Streett(pairs), Rabin(pairs)):
            res = lar_reduce(g, obj)
            assert res.game.n == g.n
            if g.is_two_player:
                for strategy in zielonka_solve(res.game, res.parity)[2:]:
                    assert pullback_strategy(res, strategy).memory_size == 1


# sha256 of the products below, computed with the record product of ac46c67
RECORD_PRODUCTS_DIGEST = "901a251989a5fccc5bf37f776ea000093e2cdfebdc75c211064ad80197d6dcf6"
# sha256 of the strategies below, computed when the kernels first solved
# 2.5-player games without the gadget; 17 of the 400 changed then, all on
# 2.5-player games, and every one of them passed the end-component check
RECORD_STRATEGIES_DIGEST = "da511b39069aeb96239752a38b877f1d293e95f012b533be283a5617e4d80e32"


def test_record_products_match_pinned_digest(kernel_name):
    """Record products and the strategies pulled back through them are
    pinned byte for byte: 200 seeded Streett and Rabin games of 2-40
    states with 0-4 pairs, 2- and 2.5-player, some labelled and some with
    given weights.  One digest covers the product's owners, successors,
    labels, weights, initial state, priorities and both maps; the other
    both players' almost-sure strategies (initial memory, choices and
    updates, in order)."""
    rng = SplitMix64(0xD16E57)
    digest = hashlib.sha256()
    strategies = hashlib.sha256()
    with _kernels.using(kernel_name):
        for trial in range(200):
            n = 2 + rng.below(39)
            owners = (PLAYER0, PLAYER1, PROBABILISTIC)[: 2 + trial % 2]
            states = []
            for s in range(n):
                targets = sorted({rng.below(n) for _ in range(1 + rng.below(3))})
                entry = (owners[rng.below(len(owners))], targets)
                states.append(entry + (f"s{s}",) if trial % 3 == 0 else entry)
            weights = {}
            if trial % 4 == 3:
                weights = {
                    s: [1 + rng.below(3) for _ in targets]
                    for s, (owner, targets, *_) in enumerate(states)
                    if owner == PROBABILISTIC
                }
            g = build_game(states, initial=rng.below(n), weights=weights)
            pairs = [
                ({s for s in range(n) if rng.below(4) == 0}, {s for s in range(n) if rng.below(4) == 0})
                for _ in range(rng.below(5))
            ]
            obj = (Streett if trial % 4 < 2 else Rabin)(pairs)
            res = lar_reduce(g, obj)
            p = res.game
            digest.update(repr((
                p.owners, p.succ, p.labels, list(p.given_weights.items()), p.initial,
                res.parity.priorities, res.origin_map, res.memory_map,
            )).encode())
            for player in (PLAYER0, PLAYER1):
                _, strategy = almost_sure_solve(g, obj, player)
                strategies.update(repr((
                    strategy.memory_initial, list(strategy.choices.items()),
                    list(strategy.updates.items()),
                )).encode())
    assert digest.hexdigest() == RECORD_PRODUCTS_DIGEST
    assert strategies.hexdigest() == RECORD_STRATEGIES_DIGEST


def test_lar_lasso_equivalence_exhaustive_two_states():
    """All lassos of 2-state structures with cycles up to length 3."""
    g = build_game([(PLAYER0, [0, 1]), (PLAYER0, [0, 1])])
    structures = []
    for qbits in range(4):
        for rbits in range(4):
            structures.append(
                [({s for s in range(2) if qbits >> s & 1}, {s for s in range(2) if rbits >> s & 1})]
            )
    for pairs in structures:
        for obj in (Streett(pairs), Rabin(pairs)):
            res = lar_reduce(g, obj)
            for stem_len in range(0, 3):
                for cycle_len in range(1, 4):
                    for stem in itertools.product(range(2), repeat=stem_len):
                        for cycle in itertools.product(range(2), repeat=cycle_len):
                            lasso = Lasso(stem, cycle)
                            assert accepts_lasso(obj, lasso) == accepts_lasso(
                                res.parity, lift_lasso(res, lasso)
                            )


def test_reduction_chain_is_the_product_then_the_gadget():
    """The record product for Rabin/Streett, then the gadget on the ranks
    of the parity objective, or the identity on a 2-player game."""
    rng = SplitMix64(0x2B1A)
    for trial in range(60):
        g = sample_game(rng, max_states=5)
        if trial % 3:
            pairs = sample_pairs(rng, g.n)
            obj = Streett(pairs) if trial % 2 else Rabin(pairs)
            lar = lar_reduce(g, obj)
            game, parity = lar.game, lar.parity
        else:
            obj = sample_parity(rng, g.n)
            game, parity = g, obj
        if not game.is_two_player:
            parity = priority_ranks(parity)
        red = reduce_stochastic_parity(game, parity)
        chain = reduction_chain(g, obj)
        assert len(chain) == (2 if trial % 3 else 1)
        assert chain[0].source is g
        assert all(step.source is before.game for before, step in zip(chain, chain[1:]))
        last = chain[-1]
        assert last.game.is_two_player
        assert (last.game, last.parity) == (red.game, red.parity)


def test_product_of_the_dual_is_the_dual_of_the_product():
    """Solving player 1 takes the record product first and its dual second,
    so both players share one product.  That is sound because the record
    ignores owners: both orders give the same states, owners, successors,
    labels and maps.  A Rabin record priority is the Streett one plus 1,
    the complement's shift: for a Streett objective the priorities agree
    too; for a Rabin one the product of the dual has every priority (and
    the count) 2 lower, the same parity order."""
    rng = SplitMix64(0xD0A1)
    for trial in range(120):
        owners = (PLAYER0, PLAYER1) if trial % 2 else (PLAYER0, PLAYER1, PROBABILISTIC)
        g = sample_game(rng, max_states=6, owners=owners)
        pairs = sample_pairs(rng, g.n, max_pairs=3)
        for obj, lower in ((Streett(pairs), 0), (Rabin(pairs), 2)):
            first = lar_reduce(*dual_game(g, obj))
            second = lar_reduce(g, obj)
            game, parity = dual_game(second.game, second.parity)
            assert first.game.owners == game.owners
            assert first.game.succ == game.succ
            assert first.game.labels == game.labels
            assert first.game.initial == game.initial
            assert first.parity.priorities == tuple(p - lower for p in parity.priorities)
            assert first.parity.count == parity.count - lower
            assert first.origin_map == second.origin_map
            assert first.memory_map == second.memory_map


def test_parity_form_memo_answers_each_objective_and_holds_no_cycle(kernel_name, monkeypatch):
    """A game keeps the record product of the last Rabin/Streett objective
    asked.  Asked in turn for Streett(A), Rabin(A), Streett(B), Streett(A)
    and a parity objective, each newly built but equal by value for the
    second player, both players get the answers of a fresh copy of the game,
    and the product is built once per objective in turn.  The game and the
    product kept on it die on ``del`` with the cycle collector off."""
    built = []
    lar = reductions.lar_reduce
    monkeypatch.setattr(reductions, "lar_reduce", lambda g, obj: built.append((g, obj)) or lar(g, obj))
    rng = SplitMix64(0x3E30)
    differ = 0
    with _kernels.using(kernel_name):
        for trial in range(40):
            g = sample_game(rng, max_states=7, owners=(PLAYER0, PLAYER1, PROBABILISTIC)[: 2 + trial % 2])
            a, b = sample_pairs(rng, g.n, max_pairs=2), sample_pairs(rng, g.n, max_pairs=2)
            turns = (Streett, a), (Rabin, a), (Streett, b), (Streett, a), (Parity, sample_parity(rng, g.n).priorities)
            built.clear()
            answers = []
            for kind, arg in turns:
                fresh = replace(g)
                answers.append([almost_sure_solve(g, kind(arg), player) for player in (PLAYER0, PLAYER1)])
                assert answers[-1] == [almost_sure_solve(fresh, kind(arg), player) for player in (PLAYER0, PLAYER1)]
            assert [obj for h, obj in built if h is g] == [kind(arg) for kind, arg in turns[:4]]
            # a stale product would answer the previous objective's question
            differ += all(answers[i] != answers[i + 1] for i in range(3))
        assert differ >= 30
        gc.disable()
        try:
            almost_sure_solve(g, Streett(a), PLAYER1)
            product = reductions.parity_form(g, Streett(a))[1]
            refs = weakref.ref(g), weakref.ref(product)
            built.clear()
            del g, fresh, product
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


def test_dual_shares_the_csr_and_never_writes_it(monkeypatch):
    """The dual's ``flat`` holds its game's successor, predecessor and live
    arrays themselves, with the owners swapped; the game's own ``flat`` keeps
    its owners, so both players of a 2.5-player parity game flatten once."""
    flattened = []
    flatten = graph._flatten
    monkeypatch.setattr(graph, "_flatten", lambda g: flattened.append(g) or flatten(g))
    g = build_game([(PLAYER0, [1, 2]), (PLAYER1, [0, 2]), (PROBABILISTIC, [0, 1]), (PLAYER1, [3, 2])], initial=0)
    obj = Parity((1, 2, 0, 3))
    dual, _ = dual_game(g, obj)
    for name in ("succ_ptr", "succ", "pred_ptr", "pred", "live_ptr", "live"):
        assert getattr(dual.flat, name) is getattr(g.flat, name)
    assert dual.flat.owners == dual.owners == (PLAYER1, PLAYER0, PROBABILISTIC, PLAYER0)
    assert g.flat.owners is g.owners
    fresh = replace(g)
    flattened.clear()
    for player in (PLAYER0, PLAYER1):
        almost_sure_solve(fresh, obj, player)
    assert fresh.flat.owners is fresh.owners
    assert len(flattened) == 1 and flattened[0] is fresh


def test_pullback_refuses_the_gadget_and_the_identity():
    """Only record products need a pullback: ``almost_sure_solve`` reads
    player 0's choices on a parity game straight from the kernel."""
    gadget = build_game([(PLAYER0, [1]), (PROBABILISTIC, [0, 1])], initial=0)
    identity = build_game([(PLAYER0, [1]), (PLAYER1, [0])], initial=0)
    for g in (gadget, identity):
        res = reduce_stochastic_parity(g, Parity((0, 1)))
        with pytest.raises(ValueError):
            pullback_strategy(res, Strategy(0, choices={(MEMORYLESS, 0): 1}))


def test_almost_sure_strategy_drops_gadget_choices(kernel_name):
    """The witness chooses at player 0's own states of the region and
    nowhere else: the probabilistic state, once the gadget's announcement
    state of player 0, carries no choice."""
    g = build_game([(PROBABILISTIC, [1, 2]), (PLAYER0, [0]), (PLAYER1, [0])])
    with _kernels.using(kernel_name):
        region, strategy = almost_sure_solve(g, Parity((3, 0, 1)), PLAYER0)
    assert region.states == frozenset({0, 1, 2})
    assert strategy.choices == {(MEMORYLESS, 1): 0}


def test_almost_sure_require_reports_missing_states(monkeypatch):
    """A kernel answer without a choice at an owned state of the region is
    refused with the states it misses, not passed on as a choice -1; on a
    record product they are product states, before any pullback."""
    from omegagames import solve

    def no_choices(g, obj):
        return [0] * g.n, [-1] * g.n, [-1] * g.n

    monkeypatch.setattr(solve, "_solve_parity", no_choices)
    g = build_game([(PLAYER0, [1]), (PLAYER0, [0]), (PROBABILISTIC, [0, 1])])
    with pytest.raises(UndefinedOnRegion, match=r"states \[0, 1\] of the region without a choice"):
        almost_sure_solve(g, Parity((0, 1, 2)), PLAYER0)
    g = build_game([(PLAYER0, [1]), (PLAYER0, [0, 1])], initial=0)
    with pytest.raises(UndefinedOnRegion, match=r"states \[0, 1, 2\] of the region without a choice"):
        almost_sure_solve(g, Streett([({0}, {1}), ({1}, {0})]), PLAYER0)


def test_priority_ranks_keep_order_and_parity():
    """Ranks are monotone in the values and keep each value's parity, so
    the least recurring rank is the rank of the least recurring value; a
    value shares its predecessor's rank exactly when both have one parity.
    Consecutive values from 0 or 1 are returned as they are."""
    rng = SplitMix64(0x4A4C)
    for trial in range(300):
        n = 1 + rng.below(12)
        spread = 10 ** (trial % 10)
        par = Parity(tuple(rng.below(spread) for _ in range(n)))
        ranked = priority_ranks(par)
        values = sorted(set(par.priorities))
        rank = dict(zip(par.priorities, ranked.priorities))
        assert len(rank) == len(values)
        assert rank[values[0]] == values[0] % 2
        for v, w in zip(values, values[1:]):
            assert rank[w] % 2 == w % 2
            assert rank[w] == rank[v] + (v - w) % 2
        assert ranked.max_priority <= len(values)
    for dense in ((0, 1, 2, 3), (3, 1, 2), (5, 1, 2, 3, 4), (0,), (1,)):
        par = Parity(dense)
        assert priority_ranks(par) is par
    assert priority_ranks(Parity((0, 2 * 10**9, 1))).priorities == (0, 2, 1)
    assert priority_ranks(Parity((4, 8, 6))).priorities == (0, 0, 0)


def test_chain_gadget_bound_in_distinct_priorities():
    """Whatever the values, the gadget of the chain adds at most
    3 * ((d + 1) // 2 + 1) states per probabilistic state for d distinct
    priorities."""
    rng = SplitMix64(0xB0B0)
    for trial in range(200):
        g = sample_game(rng, max_states=8)
        spread = 10 ** (trial % 12)
        par = Parity(tuple(rng.below(spread) for _ in range(g.n)))
        d = len(set(par.priorities))
        red = reduction_chain(g, par)[-1]
        assert red.game.n - g.n <= len(g.probabilistic_states) * 3 * ((d + 1) // 2 + 1)
