"""Parity, Streett and Rabin objectives, plus lasso-shaped test words.

The global parity convention is min-even: player 0 wins a play iff the
minimum priority occurring infinitely often is even.  Buchi and co-Buchi
conditions are encoded into that convention by the constructors below.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass(frozen=True)
class Parity:
    """Priority per state, min-even semantics.

    ``count`` is the number of priority values d; all priorities must lie
    in [0, d).  It defaults to max+1.
    """

    priorities: tuple[int, ...]
    count: Optional[int] = None

    def __post_init__(self):
        top = max(self.priorities, default=0)
        if self.count is None:
            object.__setattr__(self, "count", top + 1)
        if self.priorities and (min(self.priorities) < 0 or top >= self.count):
            bad = next(p for p in self.priorities if not 0 <= p < self.count)
            raise ValueError(f"priority {bad} outside [0, {self.count})")

    @property
    def max_priority(self) -> int:
        return max(self.priorities, default=0)

    def accepts_inf(self, states: Iterable[int]) -> bool:
        return min(self.priorities[s] for s in states) % 2 == 0

    def __str__(self):
        return f"parity objective, {self.count} priorities"


def _check_pairs(pairs):
    out = []
    for q, r in pairs:
        out.append((frozenset(q), frozenset(r)))
    return tuple(out)


@dataclass(frozen=True)
class Streett:
    """Request/response pairs: every recurring request forces its response."""

    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __init__(self, pairs):
        object.__setattr__(self, "pairs", _check_pairs(pairs))

    def accepts_inf(self, states: Iterable[int]) -> bool:
        inf = frozenset(states)
        return all(not (inf & q) or (inf & r) for q, r in self.pairs)

    def __str__(self):
        return f"Streett objective, {pair_count(len(self.pairs))}"


@dataclass(frozen=True)
class Rabin:
    """Dual of Streett: some pair is requested forever without response."""

    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __init__(self, pairs):
        object.__setattr__(self, "pairs", _check_pairs(pairs))

    def accepts_inf(self, states: Iterable[int]) -> bool:
        inf = frozenset(states)
        return any((inf & q) and not (inf & r) for q, r in self.pairs)

    def __str__(self):
        return f"Rabin objective, {pair_count(len(self.pairs))}"


Objective = Parity | Streett | Rabin


def pair_count(k: int) -> str:
    """``k`` pairs in words: "1 pair", "0 pairs", "3 pairs"."""
    return f"{k} pair" if k == 1 else f"{k} pairs"


def buchi_parity(accepting: Iterable[int], n: int) -> Parity:
    """Buchi(F) as min-even parity: p(F)=0, p elsewhere 1."""
    acc = set(accepting)
    return Parity(tuple(0 if s in acc else 1 for s in range(n)), count=2)


def cobuchi_parity(persistent: Iterable[int], n: int) -> Parity:
    """coBuchi(F) as min-even parity: p(F)=2, p elsewhere 1."""
    per = set(persistent)
    return Parity(tuple(2 if s in per else 1 for s in range(n)), count=3)


def complement(obj: Objective) -> Objective:
    """Objective accepting exactly the plays ``obj`` rejects.

    For parity this shifts every priority up by one (the min-even
    convention flips); Rabin and Streett swap roles over the same pairs.
    """
    if isinstance(obj, Parity):
        return Parity(tuple(p + 1 for p in obj.priorities), count=obj.count + 1)
    if isinstance(obj, Streett):
        return Rabin(obj.pairs)
    if isinstance(obj, Rabin):
        return Streett(obj.pairs)
    raise TypeError(f"not an objective: {obj!r}")


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic play: finite stem, nonempty repeated cycle."""

    stem: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("lasso cycle must be nonempty")

    @property
    def inf(self) -> frozenset[int]:
        return frozenset(self.cycle)


def accepts_lasso(obj: Objective, lasso: Lasso) -> bool:
    """Whether the ultimately periodic play satisfies the objective."""
    return obj.accepts_inf(lasso.inf)
