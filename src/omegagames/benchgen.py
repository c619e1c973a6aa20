"""Seeded random-game generation and the benchmark runner.

Generation is platform-independent: a splitmix64 generator with fixed
constants drives every draw, values are reduced with plain modulo, and the
procedure below is frozen, so equal specs produce byte-identical
serialized games everywhere.  Benchmarks time the almost-sure solver and
report average/best/worst wall-clock seconds per size in a fixed
five-column table (also available as CSV).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from . import _kernels
from .errors import InvalidSpec
from .graph import PLAYER0, PROBABILISTIC, GameGraph
from .objectives import Parity
from .solve import almost_sure_solve

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state, golden-gamma increment, two xor-shifts."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n) (plain modulo; bias is irrelevant and
        the reduction is fixed for reproducibility)."""
        return self.next_u64() % n


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark row: size, priority count, probabilistic fraction, seed."""

    states: int
    edges: int
    priorities: int
    prob_fraction: Fraction = Fraction(1, 10)
    seed: int = 0
    repetitions: int = 1

    def __post_init__(self):
        frac = self.prob_fraction
        if isinstance(frac, float):
            frac = Fraction(str(frac))
            object.__setattr__(self, "prob_fraction", frac)
        elif not isinstance(frac, Fraction):
            frac = Fraction(frac)
            object.__setattr__(self, "prob_fraction", frac)
        if self.states < 1:
            raise InvalidSpec("states must be >= 1")
        if self.edges < self.states:
            raise InvalidSpec("edges must be >= states (every state needs a successor)")
        if self.edges > self.states * self.states:
            raise InvalidSpec("edges cannot exceed states^2 (no duplicate edges)")
        if self.priorities < 1:
            raise InvalidSpec("priority count must be >= 1")
        if not (0 <= frac < 1):
            raise InvalidSpec("probabilistic fraction must lie in [0, 1)")
        if self.repetitions < 1:
            raise InvalidSpec("repetitions must be >= 1")


def random_game(spec: BenchSpec) -> tuple[GameGraph, Parity]:
    """Frozen generation procedure (do not reorder the draws):

    1. per state: priority below d, then owner below 2;
    2. one successor per state (uniform), then extra edges by rejection
       sampling of (source, target) pairs until the edge count is reached;
    3. floor(prob_fraction * states) states picked by a partial
       Fisher-Yates shuffle become probabilistic with uniform weights.

    The initial state is 0.
    """
    rng = SplitMix64(spec.seed)
    n, m, d = spec.states, spec.edges, spec.priorities
    prios = []
    owners = []
    for _ in range(n):
        prios.append(rng.below(d))
        owners.append(rng.below(2))
    succ = [[rng.below(n)] for _ in range(n)]
    succ_sets = [set(ss) for ss in succ]
    total = n
    while total < m:
        s = rng.below(n)
        t = rng.below(n)
        if t in succ_sets[s]:
            continue
        succ[s].append(t)
        succ_sets[s].add(t)
        total += 1
    k = (spec.prob_fraction.numerator * n) // spec.prob_fraction.denominator
    idx = list(range(n))
    for j in range(k):
        r = j + rng.below(n - j)
        idx[j], idx[r] = idx[r], idx[j]
    for s in idx[:k]:
        owners[s] = PROBABILISTIC
    game = GameGraph(tuple(owners), tuple(map(tuple, succ)), labels=(None,) * n, initial=0)
    return game, Parity(tuple(prios), count=d)


@dataclass(frozen=True)
class BenchRow:
    states: int
    edges: int
    avg: float
    best: float
    worst: float


def run_benchmark(specs: Iterable[BenchSpec], out=None) -> list[BenchRow]:
    """Generate ``repetitions`` games per spec and time each almost-sure
    solve for player 0.

    Game r of a spec uses seed ``spec.seed + r``.  When ``out`` is given the
    table is printed there as it grows.
    """
    rows = []
    if out is not None:
        print(format_header(), file=out)
    for spec in specs:
        times = []
        for rep in range(spec.repetitions):
            game, parity = random_game(replace(spec, seed=spec.seed + rep, repetitions=1))
            start = time.perf_counter()
            almost_sure_solve(game, parity, PLAYER0)
            times.append(time.perf_counter() - start)
        row = BenchRow(
            spec.states, spec.edges, sum(times) / len(times), min(times), max(times)
        )
        rows.append(row)
        if out is not None:
            print(format_row(row), file=out)
    return rows


_COLUMNS = ("States", "Edges", "Avg.", "Best", "Worst")


def format_header() -> str:
    return "{:>8} {:>8} {:>8} {:>8} {:>8}".format(*_COLUMNS)


def format_row(row: BenchRow) -> str:
    return "{:>8} {:>8} {:>8.2f} {:>8.2f} {:>8.2f}".format(
        row.states, row.edges, row.avg, row.best, row.worst
    )


def format_csv(rows: Sequence[BenchRow]) -> str:
    lines = ["states,edges,avg,best,worst"]
    for r in rows:
        lines.append(f"{r.states},{r.edges},{r.avg:.6f},{r.best:.6f},{r.worst:.6f}")
    return "\n".join(lines) + "\n"


def compare_backends(specs: Iterable[BenchSpec], out=None) -> dict[str, list[BenchRow]]:
    """Run the benchmark once per available kernel (compiled vs python)."""
    results = {}
    for name in _kernels.available():
        with _kernels.using(name):
            results[name] = run_benchmark(specs)
    if out is not None:
        names = list(results)
        header = "{:>8} {:>8}".format("States", "Edges")
        for name in names:
            header += " {:>14}".format(f"Avg.({name})")
        print(header, file=out)
        some = results[names[0]]
        for k, base in enumerate(some):
            line = "{:>8} {:>8}".format(base.states, base.edges)
            for name in names:
                line += " {:>14.2f}".format(results[name][k].avg)
            print(line, file=out)
    return results
