"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured evidence (run with ``pytest -s`` to see them).

Runtime budget: criteria 3 and 4 are the heavy ones (strategy-enumeration
oracles over thousands of games); both stay well inside their stated
limits on either kernel.
"""
import itertools
import shutil
import subprocess
import sys
import time

from omegagames.benchgen import (
    BenchSpec,
    SplitMix64,
    format_header,
    format_row,
    random_game,
    run_benchmark,
)
from omegagames.graph import PLAYER0, PLAYER1, PROBABILISTIC, build_game
from omegagames.objectives import Rabin, Streett, accepts_lasso
from omegagames.pgsolver import export_pgsolver, import_pgsolver
from omegagames.reductions import lar_reduce, lift_lasso
from omegagames.solve import almost_sure_solve, oracle_solve, zielonka_solve
from omegagames.structio import game_to_document, parse_structure, write_structure
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

from .conftest import (
    child_env,
    DATA,
    request_grant_automaton,
    repeated_grant_automaton,
    sample_game,
    sample_lasso,
    sample_pairs,
    sample_parity,
)


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_1_repeated_grant_end_to_end():
    started = time.perf_counter()
    sg = dpa_to_synthesis_game(repeated_grant_automaton())

    # (a) the specification alone is unrealizable
    realizable, _ = check_realizability(sg)
    assert realizable is False

    # (b) no safety assumption is required
    safety, safe = compute_safety_assumption(sg)
    assert safety.safety_edges == frozenset()

    # (c) the locally minimal fairness assumption is exactly the not-c input
    # edge from the initial environment state
    fair = minimize_fairness(safe)
    assert fair.fair_edges == frozenset({(0, 0)})

    # (d) the empty assumption is insufficient
    assert check_sufficiency(safe, Assumption(frozenset(), frozenset())) is False

    # (e) the witness strategy yields the one-state c/!g, !c/g machine
    fg = apply_fairness(safe, fair.fair_edges)
    region, strategy = almost_sure_solve(fg.graph, fg.parity, PLAYER0)
    assert fg.graph.initial in region
    transducer = extract_transducer(fg, strategy)
    assert transducer.n == 1
    assert transducer.moves[0][0] == (1, 0)  # input !c -> output g
    assert transducer.moves[0][1] == (0, 0)  # input c -> output !g

    # (f) assumption language == G(not(c and g)) implies GF(not c), checked
    # over all lassos with stem and cycle up to 5 letters.  Acceptance of
    # stem cycle^w by the deterministic automaton depends on the stem only
    # through the state it reaches, and the formula only through whether the
    # stem contains c&g, so the 1.8M lassos reduce to class representatives
    # after walking every stem once.
    automaton = assumption_to_streett_automaton(sg, Assumption(frozenset(), fair.fair_edges))
    alpha = sg.alphabet
    c_and_g = alpha.letter(1, 1)
    letters = range(alpha.n_letters)

    stem_classes = {}
    total_stems = 0
    for stem_len in range(0, 6):
        for stem in itertools.product(letters, repeat=stem_len):
            total_stems += 1
            key = (automaton.run(stem), c_and_g in stem)
            stem_classes.setdefault(key, stem)

    checked = 0
    total_cycles = 0
    for cycle_len in range(1, 6):
        for cycle in itertools.product(letters, repeat=cycle_len):
            total_cycles += 1
            cycle_has_cg = c_and_g in cycle
            inf_not_c = any(alpha.split(l)[0] == 0 for l in cycle)
            for (state, stem_has_cg), stem in stem_classes.items():
                expected = (stem_has_cg or cycle_has_cg) or inf_not_c
                got = automaton.accepts_lasso(stem, cycle)
                assert got == expected, (stem, cycle)
                checked += 1
    assert total_stems == 1365 and total_cycles == 1364

    # spot-check the class reduction with literal lassos
    rng = SplitMix64(0xF16)
    for _ in range(2000):
        stem = tuple(rng.below(4) for _ in range(rng.below(6)))
        cycle = tuple(rng.below(4) for _ in range(1 + rng.below(5)))
        never_cg = c_and_g not in stem and c_and_g not in cycle
        expected = (not never_cg) or any(alpha.split(l)[0] == 0 for l in cycle)
        assert automaton.accepts_lasso(stem, cycle) == expected

    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _report(
        1,
        f"repeated-grant spec end-to-end (unrealizable, empty safety, fair edge (0,not-c), "
        f"1-state transducer, language equal on {total_stems}x{total_cycles} "
        f"lassos via {len(stem_classes)} stem classes) in {elapsed:.1f}s",
    )


def test_criterion_2_request_grant_assumptions():
    sg = dpa_to_synthesis_game(request_grant_automaton())
    safety, safe = compute_safety_assumption(sg)
    # exactly the r&c edges from cooperative states; the violated state keeps
    # all inputs unrestricted
    rc = 3
    assert safety.safety_edges == frozenset({(0, rc)})
    fair = minimize_fairness(safe)
    assert fair.fair_edges == frozenset()
    realizable, _ = check_realizability(safe)
    assert realizable
    _report(2, "request/grant spec: safety = {(state 0, r and c)}, fairness empty, realizable after removal")


def test_criterion_3_oracle_equivalence_parity():
    started = time.perf_counter()
    games = 0
    rng = SplitMix64(0xACC3)
    while games < 1000:
        g = sample_game(rng, max_states=7, max_degree=3)
        par = sample_parity(rng, g.n, priorities=3)
        for player in (PLAYER0, PLAYER1):
            fast, _ = almost_sure_solve(g, par, player)
            slow = oracle_solve(g, par, player)
            assert fast.states == slow.states, (g, par, player)
        games += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    _report(3, f"1000 stochastic parity games, both players match the enumeration oracle, {elapsed:.1f}s")


def test_criterion_4_oracle_equivalence_rabin_streett():
    started = time.perf_counter()
    rng = SplitMix64(0xACC4)
    lassos_checked = 0
    for trial in range(500):
        owners = (
            (PLAYER0, PLAYER1, PROBABILISTIC) if trial % 2 == 0 else (PLAYER0, PLAYER1)
        )
        g = sample_game(rng, max_states=6, owners=owners)
        pairs = sample_pairs(rng, g.n, max_pairs=2)
        obj = Streett(pairs) if trial % 4 < 2 else Rabin(pairs)
        for player in (PLAYER0, PLAYER1):
            fast, _ = almost_sure_solve(g, obj, player)
            slow = oracle_solve(g, obj, player)
            assert fast.states == slow.states, (g, pairs, obj, player)
        # lasso-acceptance equivalence of this game's record product
        res = lar_reduce(g, obj)
        for _ in range(4):
            lasso = sample_lasso(rng, g)
            assert len(lasso.stem) <= 8 and len(lasso.cycle) <= 8
            assert accepts_lasso(obj, lasso) == accepts_lasso(
                res.parity, lift_lasso(res, lasso)
            )
            lassos_checked += 1
    elapsed = time.perf_counter() - started
    assert lassos_checked >= 1000
    _report(
        4,
        f"500 Rabin/Streett games match the oracle (both players); "
        f"{lassos_checked} product lassos agree, {elapsed:.1f}s",
    )


def test_criterion_5_determinacy_partition():
    rng = SplitMix64(0xACC5)
    for _ in range(1000):
        n = 2 + rng.below(199)
        m = min(n * (1 + rng.below(4)), n * n)
        g, par = random_game(BenchSpec(n, m, 1 + rng.below(4), 0, seed=rng.below(1 << 32)))
        w0, w1, _, _ = zielonka_solve(g, par)
        assert w0.states | w1.states == set(range(g.n))
        assert not (w0.states & w1.states)
    _report(5, "W0/W1 partition the state space on 1000 games up to 200 states")


def test_criterion_6_probability_independence():
    from fractions import Fraction

    rng = SplitMix64(0xACC6)
    for _ in range(200):
        n = 3 + rng.below(28)
        m = min(n + rng.below(3 * n), n * n)
        g, par = random_game(BenchSpec(n, m, 3, Fraction(1, 4), seed=rng.below(1 << 32)))
        base0, _ = almost_sure_solve(g, par, PLAYER0)
        base1, _ = almost_sure_solve(g, par, PLAYER1)
        reweighted = build_game(
            [(g.owners[s], list(g.succ[s]), g.label(s)) for s in range(g.n)],
            initial=g.initial,
            weights={
                s: [Fraction(1 + rng.below(97), 100) for _ in g.succ[s]]
                for s in range(g.n)
                if g.owners[s] == PROBABILISTIC
            },
        )
        other0, _ = almost_sure_solve(reweighted, par, PLAYER0)
        other1, _ = almost_sure_solve(reweighted, par, PLAYER1)
        assert other0.states == base0.states
        assert other1.states == base1.states
    _report(6, "200 reweighted games keep identical almost-sure regions (both players)")


def test_criterion_7_benchmark_shape():
    specs = [
        BenchSpec(1000, 5000, 3, "0.1", seed=2009, repetitions=3),
        BenchSpec(5000, 25000, 3, "0.1", seed=2009, repetitions=3),
    ]
    rows = run_benchmark(specs)
    assert rows[0].worst < 60 and rows[1].worst < 60
    assert rows[0].avg <= rows[1].avg
    header = format_header()
    assert header.split() == ["States", "Edges", "Avg.", "Best", "Worst"]
    for row in rows:
        cells = format_row(row).split()
        assert len(cells) == 5
        assert all(len(c.split(".")[1]) == 2 for c in cells[2:])
    _report(
        7,
        "bench rows (1000/5000) avg {:.2f}s and (5000/25000) avg {:.2f}s, "
        "nondecreasing, worst {:.2f}s < 60s, 5-column layout".format(
            rows[0].avg, rows[1].avg, max(r.worst for r in rows)
        ),
    )


def test_criterion_8_format_fidelity():
    rng = SplitMix64(0xACC8)
    docs = 0
    for trial in range(50):
        g = sample_game(rng, max_states=8)
        kind = trial % 4
        if kind == 0:
            doc = game_to_document(g, sample_parity(rng, g.n))
        elif kind == 1:
            from omegagames.structio import StateDecl, TransitionDecl, structure_document

            acc = tuple(s for s in range(g.n) if rng.below(2))
            doc = structure_document(
                "game",
                (),
                [StateDecl(s, g.owners[s], None) for s in range(g.n)],
                [
                    TransitionDecl(t, s, d, None)
                    for t, (s, d) in enumerate(
                        (s, d) for s in range(g.n) for d in g.succ[s]
                    )
                ],
                [0],
                "buchi",
                [acc],
            )
        elif kind == 2:
            doc = game_to_document(g, Streett(sample_pairs(rng, g.n)))
        else:
            doc = game_to_document(g, Rabin(sample_pairs(rng, g.n)))
        text = write_structure(doc)
        assert parse_structure(text) == doc
        assert write_structure(parse_structure(text)) == text
        docs += 1
    assert docs == 50

    games = 0
    rng2 = SplitMix64(0x8F08)
    for _ in range(100):
        g = sample_game(rng2, max_states=12, owners=(PLAYER0, PLAYER1))
        par = sample_parity(rng2, g.n, priorities=4)
        g2, par2 = import_pgsolver(export_pgsolver(g, par))
        w = zielonka_solve(g, par)
        v = zielonka_solve(g2, par2)
        assert w[0].states == v[0].states and w[1].states == v[1].states
        games += 1
    _report(8, f"{docs} documents are parse/write fixpoints; {games} PGSolver round trips keep regions")


def test_criterion_9_console_replay(tmp_path, monkeypatch):
    from omegagames.console import ConsoleState, eval_statement

    shutil.copy(DATA / "sample_game.xml", tmp_path / "sample_game.xml")
    monkeypatch.chdir(tmp_path)
    script = (DATA / "console_session.txt").read_text(encoding="utf-8")
    golden = (DATA / "console_session.golden").read_text(encoding="utf-8")

    state = ConsoleState()
    outputs = []
    for line in script.splitlines():
        state, out = eval_statement(state, line)
        if out:
            outputs.append(out)
    assert "\n".join(outputs) + "\n" == golden

    # the same transcript through the real REPL process, byte for byte
    proc = subprocess.run(
        [sys.executable, "-m", "omegagames", "repl"],
        input=script,
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == golden
    _report(9, "scripted console session replays the golden transcript byte-exactly")
