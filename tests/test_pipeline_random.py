"""End-to-end pipeline properties on random small specifications.

Random deterministic parity automata over one input and one output
proposition run through the whole flow: realizability, safety assumption,
locally minimal fairness, sufficiency, assumption automaton, transducer.
Every property the worked examples pin down is asserted here in the
general case.
"""
import hashlib
import itertools

import pytest

from omegagames import _kernels
from omegagames.automata import DetParityAutomaton, PropAlphabet
from omegagames.benchgen import SplitMix64
from omegagames.errors import EnvDeadlocked, NoFairnessAssumptionExists, SpecUnsatisfiable
from omegagames.solve import almost_sure_solve, cooperative_region
from omegagames.synthesis import (
    Assumption,
    apply_fairness,
    assumption_to_streett_automaton,
    check_realizability,
    check_sufficiency,
    compute_safety_assumption,
    dpa_to_synthesis_game,
    extract_transducer,
    minimize_fairness,
)

N_SPECS = 120


def random_dpa(rng, max_states=3, priorities=3, wide=False, min_states=1):
    inputs = ("x", "z") if wide else ("x",)
    alpha = PropAlphabet(inputs=inputs, outputs=("y",))
    n = min_states + rng.below(max_states - min_states + 1)
    table = {
        (q, letter): rng.below(n)
        for q in range(n)
        for letter in range(alpha.n_letters)
    }
    prios = [rng.below(priorities) for _ in range(n)]
    return DetParityAutomaton.from_table(alpha, n, rng.below(n), prios, table)


def random_safety_dpa(rng, max_states=3):
    """Safety-shaped spec: an absorbing rejecting sink plus priority-0
    states, so assumptions (when needed) are forbidden-edge sets."""
    inputs = ("x", "z")
    alpha = PropAlphabet(inputs=inputs, outputs=("y",))
    n = 1 + rng.below(max_states)  # ok-states; the sink is state n
    table = {}
    for q in range(n):
        for letter in range(alpha.n_letters):
            table[(q, letter)] = n if rng.below(3) == 0 else rng.below(n)
    for letter in range(alpha.n_letters):
        table[(n, letter)] = n
    prios = [0] * n + [1]
    return DetParityAutomaton.from_table(alpha, n + 1, rng.below(n), prios, table)


def pipeline_cases():
    rng = SplitMix64(0x515EC)
    for k in range(N_SPECS):
        if k % 3 == 0:
            yield random_safety_dpa(rng)
        else:
            yield random_dpa(rng, wide=k % 3 == 1)


def _transducer_lasso(t, alpha, istem, icyc):
    """Drive the transducer on an input lasso; return the full-letter lasso."""
    q = t.initial
    stem = []
    for i in istem:
        o, q = t.step(q, i)
        stem.append(alpha.letter(i, o))
    seen = {}
    trail = []
    pos = 0
    while (pos, q) not in seen:
        seen[(pos, q)] = len(trail)
        o, q = t.step(q, icyc[pos])
        trail.append(alpha.letter(icyc[pos], o))
        pos = (pos + 1) % len(icyc)
    start = seen[(pos, q)]
    return stem + trail[:start], trail[start:]


def test_pipeline_properties_on_random_specs():
    realizable_count = unsat_count = safety_only = fairness_needed = 0
    unrepairable = 0
    for aut in pipeline_cases():
        sg = dpa_to_synthesis_game(aut)
        realizable, strategy = check_realizability(sg)
        try:
            safety, safe = compute_safety_assumption(sg)
        except SpecUnsatisfiable:
            with pytest.raises(SpecUnsatisfiable):
                sg.repair
            unsat_count += 1
            assert not realizable
            assert sg.graph.initial not in cooperative_region(sg.graph, sg.parity)
            continue

        # safety edges always go from cooperative states to non-cooperative
        # choice states, and never touch system edges
        coop = cooperative_region(sg.graph, sg.parity).states
        for q, i in safety.safety_edges:
            assert q < sg.n_env
            assert q in coop and sg.choice_index(q, i) not in coop
        if realizable:
            realizable_count += 1
            assert safety.safety_edges == frozenset()

        assert sg.repair.safety == safety
        assert sg.repair.safe == safe
        try:
            fair = minimize_fairness(safe)
        except NoFairnessAssumptionExists:
            # the deficiency is on the system side: even full environment
            # fairness cannot help, and the specification was not realizable
            with pytest.raises(NoFairnessAssumptionExists):
                sg.repair.assumption
            unrepairable += 1
            assert not realizable
            full = Assumption(frozenset(), frozenset(safe.env_edges()))
            assert check_sufficiency(safe, full) is False
            continue
        combined = Assumption(safety.safety_edges, fair.fair_edges)
        assert check_sufficiency(sg, combined) is True
        if fair.fair_edges:
            fairness_needed += 1
            # local minimality: no single fair edge is redundant
            for edge in fair.fair_edges:
                weaker = Assumption(safety.safety_edges, fair.fair_edges - {edge})
                assert check_sufficiency(sg, weaker) is False
        elif safety.safety_edges:
            safety_only += 1
        if realizable:
            assert combined.is_trivial

        # the witness implements the specification under the assumption
        if fair.fair_edges:
            fg = apply_fairness(safe, fair.fair_edges)
            region, witness = almost_sure_solve(fg.graph, fg.parity, 0)
            assert fg.graph.initial in region
            transducer = extract_transducer(fg, witness)
        else:
            ok, witness = check_realizability(safe)
            assert ok
            transducer = extract_transducer(safe, witness)
        assumption_aut = assumption_to_streett_automaton(sg, combined)
        # the staged repair gives the same results on one path, with or
        # without fair edges
        assert sg.repair.assumption == combined
        assert sg.repair.automaton == assumption_aut
        assert sg.repair.transducer == transducer
        alpha = sg.alphabet
        for istem, icyc in itertools.product(
            [(), (0,), (1,), (0, 1)], [(0,), (1,), (0, 1), (1, 0, 0)]
        ):
            stem, cycle = _transducer_lasso(transducer, alpha, istem, icyc)
            if assumption_aut.accepts_lasso(stem, cycle):
                assert aut.accepts_lasso(stem, cycle), (istem, icyc)
    # the sample must exercise every pipeline outcome
    assert realizable_count and unsat_count and fairness_needed and safety_only
    assert unrepairable


def test_assumption_automaton_on_random_specs_is_deterministic_and_total():
    rng = SplitMix64(0x70701)
    for _ in range(40):
        aut = random_dpa(rng)
        sg = dpa_to_synthesis_game(aut)
        try:
            safety, safe = compute_safety_assumption(sg)
            fair = minimize_fairness(safe)
        except (SpecUnsatisfiable, NoFairnessAssumptionExists):
            continue
        sa = assumption_to_streett_automaton(
            sg, Assumption(safety.safety_edges, fair.fair_edges)
        )
        assert len(sa.delta) == sa.n
        for row in sa.delta:
            assert len(row) == sa.alphabet.n_letters
            assert all(0 <= t < sa.n for t in row)
        for request, response in sa.pairs:
            assert request <= set(range(sa.n))
            assert response <= set(range(sa.n))


# sha256 of the pipeline outputs below, computed at 88981ec
_PINNED_REPAIR_DIGEST = "b0158fe8f5086d157fa9cadd22d5da127f4077265ae258ea13b323f6593e7ec8"


def _repair_record(aut):
    """Realizability, the repair's edge sets, Streett automaton and both
    transducers of one spec (or the class name of the exception that ends it)."""
    sg = dpa_to_synthesis_game(aut)
    realizable, _ = check_realizability(sg)
    record = [realizable]
    try:
        safety, safe = compute_safety_assumption(sg)
        record.append(sorted(safety.safety_edges))
        fair = minimize_fairness(safe).fair_edges
    except (SpecUnsatisfiable, NoFairnessAssumptionExists) as exc:
        return record + [type(exc).__name__]
    record.append(sorted(fair))
    sa = assumption_to_streett_automaton(sg, Assumption(safety.safety_edges, fair))
    record += [sa.delta, [(sorted(q), sorted(r)) for q, r in sa.pairs], sa.initial]
    if fair:
        fg = apply_fairness(safe, fair)
        _, witness = almost_sure_solve(fg.graph, fg.parity, 0)
        transducer = extract_transducer(fg, witness)
    else:
        _, witness = check_realizability(safe)
        transducer = extract_transducer(safe, witness)
    for t in (transducer, sg.repair.transducer):
        record += [t.moves, t.initial]
    return record


def test_repair_outputs_match_pinned_digest(kernel_name):
    """Every stage of the repair returns exactly what it returned before the
    fairness-wrapped game became a ``SynthesisGame``: the property test
    above checks the stages against each other, not against a fixed answer."""
    h = hashlib.sha256()
    with _kernels.using(kernel_name):
        for aut in pipeline_cases():
            h.update(repr(_repair_record(aut)).encode())
    assert h.hexdigest() == _PINNED_REPAIR_DIGEST


def _random_subset(rng, edges, one_in):
    return frozenset(e for e in edges if rng.below(one_in) == 0)


def test_sufficiency_matches_almost_sure_solve_of_fair_game(kernel_name):
    """``check_sufficiency``, which solves the safe game with the fair edges
    as live edges, answers as its declared oracle does: the initial state is
    in the almost-sure region of ``apply_fairness``'s game.  Checked on 300
    random specifications, each with random assumptions (some with safety
    edges), on the split game and on a fairness-wrapped copy of it, whose
    probabilistic states' live rows merge with the fair edges' rows."""
    rng = SplitMix64(0x5AFE1)
    seen = {"sufficient": 0, "insufficient": 0, "safety": 0, "merged": 0}
    with _kernels.using(kernel_name):
        for k in range(300):
            aut = random_safety_dpa(rng) if k % 3 == 0 else random_dpa(rng, wide=k % 3 == 1)
            sg = dpa_to_synthesis_game(aut)
            edges = sorted(sg.env_edges())
            wrapped = apply_fairness(sg, _random_subset(rng, edges, 2))
            for game in (sg, wrapped):
                for trial in range(4):
                    safety = _random_subset(rng, edges, 4) if trial % 2 else frozenset()
                    fair = _random_subset(rng, [e for e in edges if e not in safety], 1 + trial)
                    asm = Assumption(safety, fair)
                    try:
                        fg = apply_fairness(game.remove_env_edges(safety), fair)
                    except EnvDeadlocked:
                        with pytest.raises(EnvDeadlocked):
                            check_sufficiency(game, asm)
                        continue
                    region, _ = almost_sure_solve(fg.graph, fg.parity, 0)
                    expected = fg.graph.initial in region
                    assert check_sufficiency(game, asm) is expected, (k, game is sg, asm)
                    seen["sufficient" if expected else "insufficient"] += 1
                    seen["safety"] += bool(safety)
                    seen["merged"] += bool(fair) and game is wrapped and not game.graph.is_two_player
    assert min(seen.values()) >= 100, seen
