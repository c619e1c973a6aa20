"""Benchmark generator determinism and runner output shape."""
import importlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import pytest

from omegagames.benchgen import (
    BENCH_SIZE_BOUND,
    BenchSpec,
    SplitMix64,
    format_csv,
    format_header,
    format_row,
    random_game,
    run_benchmark,
)
from omegagames.errors import InvalidSpec
from omegagames.graph import PROBABILISTIC, validate_game
from omegagames.structio import game_to_document, write_structure

from .conftest import child_env

ROOT = Path(__file__).resolve().parent.parent


def test_splitmix_reference_values():
    # splitmix64 of seed 0: first outputs of the standard constants
    rng = SplitMix64(0)
    first = rng.next_u64()
    rng2 = SplitMix64(0)
    assert rng2.next_u64() == first
    assert SplitMix64(1).next_u64() != first


def test_minimal_spec_single_even_loop():
    g, par = random_game(BenchSpec(1, 1, 1, 0, seed=5))
    assert g.succ == ((0,),)
    assert par.priorities == (0,)
    assert g.initial == 0


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        BenchSpec(0, 1, 1)
    with pytest.raises(InvalidSpec):
        BenchSpec(2, 1, 1)
    with pytest.raises(InvalidSpec):
        BenchSpec(2, 5, 1)  # above n^2
    with pytest.raises(InvalidSpec):
        BenchSpec(2, 2, 0)
    with pytest.raises(InvalidSpec):
        BenchSpec(2, 2, 1, prob_fraction=1)
    with pytest.raises(InvalidSpec):
        BenchSpec(2, 2, 1, repetitions=0)
    for states, edges in ((BENCH_SIZE_BOUND + 1,) * 2, (1, BENCH_SIZE_BOUND + 1), (3 * 10**9,) * 2):
        with pytest.raises(InvalidSpec, match=f"at most {BENCH_SIZE_BOUND}"):
            BenchSpec(states, edges, 1)
    # the bound itself and the 100k-state headline spec are accepted
    BenchSpec(BENCH_SIZE_BOUND, BENCH_SIZE_BOUND, 1)
    BenchSpec(100000, 500000, 8)


def test_thousand_state_row_shape():
    g, par = random_game(BenchSpec(1000, 5000, 3, 0.1, seed=42))
    assert g.n == 1000
    assert g.edge_count == 5000
    assert sum(1 for o in g.owners if o == PROBABILISTIC) == 100
    assert par.count == 3
    assert validate_game(g) == []


def test_same_seed_same_bytes():
    spec = BenchSpec(40, 160, 3, 0.1, seed=77)
    texts = [
        write_structure(game_to_document(*random_game(spec))) for _ in range(2)
    ]
    assert texts[0] == texts[1]
    other = write_structure(
        game_to_document(*random_game(BenchSpec(40, 160, 3, 0.1, seed=78)))
    )
    assert other != texts[0]


def test_prob_fraction_floor_is_exact():
    g, _ = random_game(BenchSpec(10, 20, 2, 0.3, seed=1))
    assert sum(1 for o in g.owners if o == PROBABILISTIC) == 3
    g2, _ = random_game(BenchSpec(9, 18, 2, 0.3, seed=1))
    assert sum(1 for o in g2.owners if o == PROBABILISTIC) == 2  # floor(2.7)


def test_single_repetition_collapses_stats():
    rows = run_benchmark([BenchSpec(30, 120, 3, 0.1, seed=3, repetitions=1)])
    assert rows[0].avg == rows[0].best == rows[0].worst


def test_table_layout_and_csv():
    rows = run_benchmark([BenchSpec(30, 120, 3, 0.1, seed=3, repetitions=2)])
    header = format_header()
    assert header.split() == ["States", "Edges", "Avg.", "Best", "Worst"]
    line = format_row(rows[0])
    cells = line.split()
    assert cells[0] == "30" and cells[1] == "120"
    assert all("." in c and len(c.split(".")[1]) == 2 for c in cells[2:])
    csv = format_csv(rows)
    assert csv.splitlines()[0] == "states,edges,avg,best,worst"
    assert len(csv.splitlines()) == 2


def test_runner_prints_rows_incrementally():
    buf = io.StringIO()
    run_benchmark(
        [
            BenchSpec(20, 60, 2, 0, seed=1, repetitions=1),
            BenchSpec(30, 90, 2, 0, seed=1, repetitions=1),
        ],
        out=buf,
    )
    lines = buf.getvalue().splitlines()
    assert len(lines) == 3  # header + two rows


def test_prob_free_games_add_no_gadgets():
    from omegagames.reductions import reduce_stochastic_parity

    g, par = random_game(BenchSpec(50, 200, 3, 0, seed=4))
    red = reduce_stochastic_parity(g, par)
    assert red.game is g


def test_prob_free_solving_overhead_within_ten_percent():
    """Without probabilistic states the almost-sure pipeline must cost about
    the same as plain 2-player solving (the reduction adds no gadgets).
    Measured on the pure kernel where both paths are Python end to end.
    The two solves alternate in pairs, each timed in process CPU time, and
    the median per-pair ratio is compared, so neither drift in host speed
    nor a stall in one pair decides the outcome."""
    import statistics
    import time

    from omegagames import _kernels
    from omegagames.solve import almost_sure_solve, zielonka_solve

    g, par = random_game(BenchSpec(5000, 20000, 3, 0, seed=11))
    assert validate_game(g) == []

    def timed(fn):
        start = time.process_time()
        fn()
        return time.process_time() - start

    ratios = []
    with _kernels.using("python"):
        for _ in range(31):
            plain = timed(lambda: zielonka_solve(g, par))
            piped = timed(lambda: almost_sure_solve(g, par, 0))
            ratios.append(piped / plain)
    ratio = statistics.median(ratios)
    assert ratio <= 1.10, f"median pipeline/plain ratio {ratio:.3f} over {len(ratios)} pairs"


def test_reduction_region_identity_on_benchmark_games():
    """toDeterministicGame then winningRegion 0, restricted to the copies of
    original states, equals the direct region (sampled sizes up to 200)."""
    from omegagames.reductions import reduce_stochastic_parity
    from omegagames.solve import almost_sure_solve, zielonka_solve

    rng = SplitMix64(0x7D1)
    for _ in range(25):
        n = 5 + rng.below(196)
        m = min(n + rng.below(3 * n), n * n)
        g, par = random_game(BenchSpec(n, m, 3, "0.1", seed=rng.below(1 << 32)))
        direct, _ = almost_sure_solve(g, par, 0)
        red = reduce_stochastic_parity(g, par)
        w0, _, _, _ = zielonka_solve(red.game, red.parity)
        assert red.lift(w0.states) == {s for s in w0.states if s < g.n} == direct.states


def test_perfbench_span_targets_resolve():
    """The traced benchmark run wraps these functions by name, so renaming
    one must fail here instead of silently dropping its span."""
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr, _name in spans.TARGETS:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"


def test_public_names_resolve():
    """Every name the package exports exists, so a star import succeeds and
    removing a definition without its ``__all__`` entry fails here."""
    import omegagames

    missing = [name for name in omegagames.__all__ if not hasattr(omegagames, name)]
    assert not missing
    namespace = {}
    exec("from omegagames import *", namespace)
    assert set(omegagames.__all__) <= namespace.keys()


def test_perfbench_certifier_tests_pass():
    """The benchmark's certificate checkers accept the program's regions and
    strategies.  The file pins ``OMEGAGAMES_BACKEND`` on import, so it runs
    in its own process."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/test_certify.py"],
        cwd=ROOT,
        env=child_env(PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
