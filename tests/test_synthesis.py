"""Synthesis pipeline on the two worked request/grant examples."""
import itertools
import math
import shlex

import pytest

from omegagames import _kernels
from omegagames.automata import DetParityAutomaton, PropAlphabet
from omegagames.benchgen import SplitMix64
from omegagames.errors import (
    EnvDeadlocked,
    NoFairnessAssumptionExists,
    NotEnvEdge,
    SpecUnsatisfiable,
    StrategyIncomplete,
)
from omegagames.graph import PLAYER0, PLAYER1, PROBABILISTIC
from omegagames.solve import almost_sure_solve, cooperative_region
from omegagames.strategies import MEMORYLESS, Strategy
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

from .conftest import DATA, request_grant_automaton, repeated_grant_automaton
from .test_pipeline_random import random_dpa


@pytest.fixture(scope="module")
def repeated_grant():
    return dpa_to_synthesis_game(repeated_grant_automaton())


@pytest.fixture(scope="module")
def request_grant():
    return dpa_to_synthesis_game(request_grant_automaton())


def test_split_shape(repeated_grant):
    # 3 environment states plus one choice state per (state, input letter)
    assert repeated_grant.n_env == 3
    assert repeated_grant.graph.n == 9
    alpha = repeated_grant.alphabet
    for q in range(3):
        assert len(repeated_grant.graph.succ[q]) == alpha.n_inputs
        assert repeated_grant.graph.owners[q] == PLAYER1
        assert repeated_grant.parity.priorities[q] == repeated_grant.automaton.priorities[q]
    neutral = repeated_grant.parity.priorities[repeated_grant.n_env]
    for c in range(3, 9):
        assert repeated_grant.graph.owners[c] == PLAYER0
        assert repeated_grant.parity.priorities[c] == neutral
    assert neutral > max(repeated_grant.automaton.priorities)


def test_trivial_one_state_spec():
    alpha = PropAlphabet(inputs=("a",), outputs=("b",))
    table = {(0, letter): 0 for letter in range(alpha.n_letters)}
    aut = DetParityAutomaton.from_table(alpha, 1, 0, (0,), table)
    sg = dpa_to_synthesis_game(aut)
    assert sg.graph.n == 3  # 1 env + 2 choice
    ok, strategy = check_realizability(sg)
    assert ok
    w0, _ = almost_sure_solve(sg.graph, sg.parity, 0)
    assert w0.states == set(range(3))
    t = extract_transducer(sg, strategy)
    assert t.n == 1
    assert t.moves[0][0][0] == 0  # any output wins; least letter by tie-break


def test_incomplete_automaton_completion():
    alpha = PropAlphabet(inputs=("a",), outputs=("b",))
    table = {(0, 0): 0}
    from omegagames.errors import IncompleteAutomaton

    with pytest.raises(IncompleteAutomaton):
        DetParityAutomaton.from_table(alpha, 1, 0, (0,), table)
    aut = DetParityAutomaton.from_table(alpha, 1, 0, (0,), table, complete=True)
    assert aut.n == 2
    assert aut.priorities[1] == 1  # rejecting sink
    assert all(aut.delta[1][letter] == 1 for letter in range(alpha.n_letters))


def test_repeated_grant_unrealizable(repeated_grant):
    ok, strategy = check_realizability(repeated_grant)
    assert ok is False and strategy is None


def test_repeated_grant_no_safety_assumption(repeated_grant):
    asm, safe = compute_safety_assumption(repeated_grant)
    assert asm.safety_edges == frozenset()
    assert safe.graph.succ == repeated_grant.graph.succ


def test_repeated_grant_empty_assumption_insufficient(repeated_grant):
    assert check_sufficiency(repeated_grant, Assumption(frozenset(), frozenset())) is False


def test_repeated_grant_minimal_fairness_is_the_notc_edge(repeated_grant):
    _, safe = compute_safety_assumption(repeated_grant)
    fair = minimize_fairness(safe)
    assert fair.fair_edges == frozenset({(0, 0)})  # initial env state, input !c
    # local minimality: dropping the single edge breaks sufficiency
    for edge in fair.fair_edges:
        weaker = Assumption(frozenset(), fair.fair_edges - {edge})
        assert check_sufficiency(safe, weaker) is False
    assert check_sufficiency(safe, fair) is True


def junker_bound(n_fair, n_edges):
    """QuickXplain's check bound for |F| kept edges out of |E|, plus the
    checks of the full and the empty fair set."""
    return 2 + 2 * n_fair * (math.ceil(math.log2(n_edges)) + 1)


def counting_checks(monkeypatch):
    """Route ``synthesis.check_sufficiency`` through a recorder and return
    the list it appends each checked assumption to."""
    from omegagames import synthesis

    calls = []

    def counted(sg, asm, _check=synthesis.check_sufficiency):
        calls.append(asm)
        return _check(sg, asm)

    monkeypatch.setattr(synthesis, "check_sufficiency", counted)
    return calls


def test_repeated_grant_fairness_search_check_count(repeated_grant, monkeypatch):
    """The search checks through the module-level ``check_sufficiency`` and
    stays within Junker's bound (8 checks of at most 10 here)."""
    calls = counting_checks(monkeypatch)
    _, safe = compute_safety_assumption(repeated_grant)
    fair = minimize_fairness(safe).fair_edges
    assert fair == frozenset({(0, 0)})
    assert len(calls) <= junker_bound(len(fair), len(safe.env_edges()))


def ascending_deletion_pass(sg):
    """The oracle: start from every environment edge fair and drop edges in
    one ascending (state, input letter) pass, 1 + |edges| checks."""
    fair = set(sg.env_edges())
    if not check_sufficiency(sg, Assumption(frozenset(), frozenset(fair))):
        raise NoFairnessAssumptionExists(
            "the specification stays unrealizable under full transition fairness"
        )
    for edge in sorted(fair):
        trial = frozenset(fair - {edge})
        if check_sufficiency(sg, Assumption(frozenset(), trial)):
            fair.discard(edge)
    return Assumption(frozenset(), frozenset(fair))


def fairness_search_cases():
    rng = SplitMix64(0xFA12)
    for _ in range(60):
        yield random_dpa(rng, wide=True)
    for _ in range(12):
        yield random_dpa(rng, max_states=30, wide=True, min_states=10)


def test_fairness_search_matches_ascending_deletion_pass(kernel_name, monkeypatch):
    """QuickXplain keeps the fair set of the ascending deletion pass, raises
    exactly when it raises, and stays within Junker's check bound."""
    calls = counting_checks(monkeypatch)
    outcomes = {"empty": 0, "fair": 0, "none": 0}
    with _kernels.using(kernel_name):
        for aut in fairness_search_cases():
            sg = dpa_to_synthesis_game(aut)
            try:
                _, safe = compute_safety_assumption(sg)
            except SpecUnsatisfiable:
                continue
            try:
                expected = ascending_deletion_pass(safe).fair_edges
            except NoFairnessAssumptionExists:
                with pytest.raises(NoFairnessAssumptionExists):
                    minimize_fairness(safe)
                outcomes["none"] += 1
                continue
            calls.clear()
            fair = minimize_fairness(safe).fair_edges
            assert fair == expected
            assert len(calls) <= junker_bound(len(fair), len(safe.env_edges()))
            outcomes["fair" if fair else "empty"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_repeated_grant_sufficiency_monotone_over_all_subsets(repeated_grant):
    """Enlarging the fair set never turns a sufficient assumption insufficient
    (checked over every subset of the six environment edges)."""
    edges = sorted(repeated_grant.env_edges())
    verdict = {}
    for k in range(len(edges) + 1):
        for subset in itertools.combinations(edges, k):
            asm = Assumption(frozenset(), frozenset(subset))
            verdict[frozenset(subset)] = check_sufficiency(repeated_grant, asm)
    for subset, ok in verdict.items():
        if not ok:
            continue
        for larger, ok2 in verdict.items():
            if subset <= larger:
                assert ok2, f"{sorted(subset)} sufficient but {sorted(larger)} not"


def test_repeated_grant_wrapper_construction(repeated_grant):
    fg = apply_fairness(repeated_grant, {(0, 0)})
    wrapper = repeated_grant.graph.n
    assert fg.graph.owners[wrapper] == PROBABILISTIC
    # uniform support: the wrapped state and the fair edge's choice state
    assert sorted(fg.graph.support(wrapper)) == sorted([0, repeated_grant.choice_index(0, 0)])
    assert fg.graph.initial == wrapper  # initial designation redirected
    assert fg.parity.priorities[wrapper] == repeated_grant.parity.priorities[0]
    # every edge formerly entering env state 0 enters the wrapper now
    for s in range(repeated_grant.graph.n):
        for t_old, t_new in zip(repeated_grant.graph.succ[s], fg.graph.succ[s]):
            if t_old == 0:
                assert t_new == wrapper
            else:
                assert t_new == t_old
    # state 0 keeps its own moves
    assert fg.graph.succ[0] == repeated_grant.graph.succ[0]


def test_apply_fairness_empty_is_identity(repeated_grant):
    fg = apply_fairness(repeated_grant, set())
    assert fg is repeated_grant


def test_apply_fairness_collapse_isomorphism(repeated_grant):
    """Collapsing each wrapper back into its state recovers the input graph."""
    fair = {(0, 0), (1, 1), (2, 0)}
    fg = apply_fairness(repeated_grant, fair)
    n = repeated_grant.graph.n
    wrapper_of = {
        w: fg.graph.succ[w][0] for w in range(n, fg.graph.n)
        if fg.graph.owners[w] == PROBABILISTIC
    }
    assert len(wrapper_of) == fg.graph.n - n == len({q for q, _i in fair})
    collapse = {idx: wrapper_of.get(idx, idx) for idx in range(fg.graph.n)}
    for s in range(n):
        mapped = [collapse[t] for t in fg.graph.succ[s]]
        assert mapped == list(repeated_grant.graph.succ[s])
    for wrapper, q in wrapper_of.items():
        # the wrapper's first successor is its state, the rest the fair targets
        assert q < repeated_grant.n_env
        assert fg.graph.succ[wrapper] == (
            q, *(repeated_grant.choice_index(q, i) for q2, i in sorted(fair) if q2 == q)
        )


def test_apply_fairness_rejects_foreign_edges(repeated_grant):
    with pytest.raises(NotEnvEdge):
        apply_fairness(repeated_grant, {(5, 0)})  # 5 is a choice state, not env
    with pytest.raises(NotEnvEdge):
        apply_fairness(repeated_grant, {(0, 9)})


def test_safety_and_fair_edges_share_one_edge_check(request_grant):
    """An edge out of range, or one the safety removal already took, is
    refused as a safety edge just as it is as a fair edge."""
    asm, safe = compute_safety_assumption(request_grant)
    (gone,) = asm.safety_edges
    cases = [
        (request_grant, (99, 0), "not an environment edge"),
        (request_grant, (0, 99), "not an environment edge"),
        (safe, gone, "not present"),
    ]
    for sg, edge, message in cases:
        for bad in (Assumption({edge}, frozenset()), Assumption(frozenset(), {edge})):
            with pytest.raises(NotEnvEdge, match=message):
                check_sufficiency(sg, bad)


def test_apply_fairness_single_env_state_all_edges():
    alpha = PropAlphabet(inputs=("a",), outputs=("b",))
    table = {(0, letter): 0 for letter in range(alpha.n_letters)}
    aut = DetParityAutomaton.from_table(alpha, 1, 0, (0,), table)
    sg = dpa_to_synthesis_game(aut)
    fg = apply_fairness(sg, set(sg.env_edges()))
    wrapper = sg.graph.n
    assert sorted(fg.graph.support(wrapper)) == sorted(
        [0] + [sg.choice_index(0, i) for i in range(alpha.n_inputs)]
    )


def test_repeated_grant_transducer(repeated_grant):
    _, safe = compute_safety_assumption(repeated_grant)
    fair = minimize_fairness(safe)
    fg = apply_fairness(safe, fair.fair_edges)
    region, strategy = almost_sure_solve(fg.graph, fg.parity, 0)
    assert fg.graph.initial in region
    t = extract_transducer(fg, strategy)
    assert t.n == 1
    assert t.moves[0][0] == (1, 0)  # !c -> g
    assert t.moves[0][1] == (0, 0)  # c -> !g


def test_repeated_grant_assumption_language(repeated_grant):
    """The exported Streett automaton accepts exactly
    G(not(c and g)) implies GF(not c), on bounded lassos."""
    sa = assumption_to_streett_automaton(repeated_grant, Assumption(frozenset(), frozenset({(0, 0)})))
    alpha = repeated_grant.alphabet
    c_and_g = alpha.letter(1, 1)

    def formula(stem, cycle):
        never_cg = all(l != c_and_g for l in list(stem) + list(cycle))
        inf_not_c = any(alpha.split(l)[0] == 0 for l in cycle)
        return (not never_cg) or inf_not_c

    for stem_len in range(0, 4):
        for cycle_len in range(1, 4):
            for stem in itertools.product(range(4), repeat=stem_len):
                for cycle in itertools.product(range(4), repeat=cycle_len):
                    assert sa.accepts_lasso(stem, cycle) == formula(stem, cycle)


def test_trivial_assumption_automaton_is_universal(repeated_grant):
    sa = assumption_to_streett_automaton(repeated_grant, Assumption(frozenset(), frozenset()))
    for stem in ([], [0, 3], [2, 2, 1]):
        for cycle in ([0], [3], [1, 2]):
            assert sa.accepts_lasso(stem, cycle)


def test_request_grant_safety_assumption(request_grant):
    asm, safe = compute_safety_assumption(request_grant)
    # exactly the r&c edge from the cooperative state, none from the violated state
    rc = 3  # input letter with both r and c
    assert asm.safety_edges == frozenset({(0, rc)})
    coop = cooperative_region(request_grant.graph, request_grant.parity).states
    for q, i in asm.safety_edges:
        assert q in coop and request_grant.choice_index(q, i) not in coop
    # no fairness needed afterwards
    assert minimize_fairness(safe).fair_edges == frozenset()
    ok, _ = check_realizability(safe)
    assert ok


def test_request_grant_safety_automaton_rejects_forbidden_prefixes(request_grant):
    asm, _ = compute_safety_assumption(request_grant)
    sa = assumption_to_streett_automaton(request_grant, asm)
    aut = request_grant.automaton
    alpha = request_grant.alphabet

    def assumption_holds(stem, cycle):
        q = 0
        for letter in list(stem) + 4 * list(cycle):
            i, _o = alpha.split(letter)
            if q == 0 and i == 3:
                return False  # r&c while still satisfiable
            q2 = aut.delta[q][letter]
            if q2 == 1:
                return True  # system violated first: vacuously true
            q = q2
        return True

    for stem_len in range(0, 3):
        for cycle_len in range(1, 3):
            for stem in itertools.product(range(8), repeat=stem_len):
                for cycle in itertools.product(range(8), repeat=cycle_len):
                    assert sa.accepts_lasso(stem, cycle) == assumption_holds(stem, cycle)


def test_request_grant_transducer_satisfies_spec_under_assumption(request_grant):
    asm, safe = compute_safety_assumption(request_grant)
    _, strategy = check_realizability(safe)
    t = extract_transducer(safe, strategy)
    sa = assumption_to_streett_automaton(request_grant, asm)
    aut = request_grant.automaton
    alpha = request_grant.alphabet
    for stem_len in range(0, 3):
        for cycle_len in range(1, 3):
            for istem in itertools.product(range(4), repeat=stem_len):
                for icyc in itertools.product(range(4), repeat=cycle_len):
                    q = t.initial
                    full_stem = []
                    for i in istem:
                        o, q = t.step(q, i)
                        full_stem.append(alpha.letter(i, o))
                    seen = {}
                    trail = []
                    pos = 0
                    while (pos, q) not in seen:
                        seen[(pos, q)] = len(trail)
                        o, q = t.step(q, icyc[pos])
                        trail.append(alpha.letter(icyc[pos], o))
                        pos = (pos + 1) % cycle_len
                    start = seen[(pos, q)]
                    full = full_stem + trail[:start], trail[start:]
                    if sa.accepts_lasso(*full):
                        assert aut.accepts_lasso(*full)


def test_unsatisfiable_spec_raises():
    alpha = PropAlphabet(inputs=("a",), outputs=("b",))
    table = {(0, letter): 0 for letter in range(alpha.n_letters)}
    aut = DetParityAutomaton.from_table(alpha, 1, 0, (1,), table)  # all odd
    sg = dpa_to_synthesis_game(aut)
    with pytest.raises(SpecUnsatisfiable):
        compute_safety_assumption(sg)
    with pytest.raises(NoFairnessAssumptionExists):
        minimize_fairness(sg)


def test_realizable_spec_drops_all_fair_edges():
    alpha = PropAlphabet(inputs=("a",), outputs=("b",))
    table = {(0, letter): 0 for letter in range(alpha.n_letters)}
    aut = DetParityAutomaton.from_table(alpha, 1, 0, (0,), table)
    sg = dpa_to_synthesis_game(aut)
    assert minimize_fairness(sg).fair_edges == frozenset()


def test_no_system_edges_in_assumptions(repeated_grant, request_grant):
    for sg in (repeated_grant, request_grant):
        try:
            asm, safe = compute_safety_assumption(sg)
        except SpecUnsatisfiable:
            continue
        edges = set(sg.env_edges())
        assert asm.safety_edges <= edges
        fair = minimize_fairness(safe)
        assert fair.fair_edges <= set(safe.env_edges())


def test_realizable_spec_any_assumption_sufficient():
    alpha = PropAlphabet(inputs=("a",), outputs=("b",))
    table = {(0, letter): 0 for letter in range(alpha.n_letters)}
    aut = DetParityAutomaton.from_table(alpha, 1, 0, (0,), table)
    sg = dpa_to_synthesis_game(aut)
    for fair in (frozenset(), frozenset({(0, 0)}), frozenset(sg.env_edges())):
        assert check_sufficiency(sg, Assumption(frozenset(), fair)) is True


def test_repeated_grant_transducer_satisfies_spec_under_assumption(repeated_grant):
    _, safe = compute_safety_assumption(repeated_grant)
    fair = minimize_fairness(safe)
    fg = apply_fairness(safe, fair.fair_edges)
    _, strategy = almost_sure_solve(fg.graph, fg.parity, 0)
    t = extract_transducer(fg, strategy)
    sa = assumption_to_streett_automaton(repeated_grant, Assumption(frozenset(), fair.fair_edges))
    aut = repeated_grant.automaton
    alpha = repeated_grant.alphabet
    for stem_len in range(0, 4):
        for cycle_len in range(1, 4):
            for istem in itertools.product(range(2), repeat=stem_len):
                for icyc in itertools.product(range(2), repeat=cycle_len):
                    q = t.initial
                    full_stem = []
                    for i in istem:
                        o, q = t.step(q, i)
                        full_stem.append(alpha.letter(i, o))
                    seen = {}
                    trail = []
                    pos = 0
                    while (pos, q) not in seen:
                        seen[(pos, q)] = len(trail)
                        o, q = t.step(q, icyc[pos])
                        trail.append(alpha.letter(icyc[pos], o))
                        pos = (pos + 1) % cycle_len
                    start = seen[(pos, q)]
                    full = full_stem + trail[:start], trail[start:]
                    if sa.accepts_lasso(*full):
                        assert aut.accepts_lasso(*full)


def test_memoryless_strategy_bounds_transducer_size(request_grant):
    asm, safe = compute_safety_assumption(request_grant)
    _, strategy = check_realizability(safe)
    t = extract_transducer(safe, strategy)
    # a memoryless strategy cannot need more than one transducer state per
    # environment state (plus don't-care tracking collapses on minimization)
    assert t.n <= safe.n_env
    # the walk reads one choice per state: the same choices under a memory
    # that changes are refused
    with_memory = Strategy(PLAYER0, choices=strategy.choices, updates={(MEMORYLESS, 0): 1})
    with pytest.raises(ValueError, match="memoryless"):
        extract_transducer(safe, with_memory)


def test_forbidding_every_initial_edge_deadlocks_the_environment(repeated_grant):
    initial = repeated_grant.graph.initial
    every = frozenset(e for e in repeated_grant.env_edges() if e[0] == initial)
    with pytest.raises(EnvDeadlocked):
        check_sufficiency(repeated_grant, Assumption(every, frozenset()))


def test_transducer_of_an_empty_strategy_is_incomplete(repeated_grant):
    with pytest.raises(StrategyIncomplete):
        extract_transducer(repeated_grant, Strategy(PLAYER0))


def test_repair_safety_stage_never_runs_the_fairness_search(monkeypatch, capsys):
    """``sg.repair`` computes the safety stage on creation and the fairness
    search only on demand: safety answers survive a failing search, in the
    API, the CLI and the console."""
    from omegagames import synthesis
    from omegagames.cli import cli_main
    from omegagames.console import ConsoleState, eval_statement

    def fail(_sg):
        raise RuntimeError("the fairness search ran")

    monkeypatch.setattr(synthesis, "minimize_fairness", fail)
    sg = dpa_to_synthesis_game(request_grant_automaton())
    assert sg.repair.safety.safety_edges == frozenset({(0, 3)})
    assert sg.repair is sg.repair
    with pytest.raises(RuntimeError):
        sg.repair.assumption
    spec = str(DATA / "request_grant.xml")
    assert cli_main(["synth", "safety", spec]) == 0
    assert "1 forbidden edges" in capsys.readouterr().out
    state, _ = eval_statement(ConsoleState(), f"$sg = SynthesisGame readFile {shlex.quote(spec)}")
    _, out = eval_statement(state, "$s = $sg safetyAssumption")
    assert out == "assumption safety=[(0, 3)] fair=[]"
