"""Specification automata over input/output propositions.

Letters are valuations: an input letter is an integer whose bit k is the
truth value of the k-th declared input proposition (same for outputs), and
a full letter combines one of each.  The deterministic parity automaton is
the synthesis input; the Streett automaton is the export format for
computed environment assumptions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import IncompleteAutomaton
from .objectives import Parity, Streett


@dataclass(frozen=True)
class PropAlphabet:
    """Declared input (environment) and output (system) propositions."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        names = list(self.inputs) + list(self.outputs)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate proposition names in {names}")

    @property
    def n_inputs(self) -> int:
        return 1 << len(self.inputs)

    @property
    def n_outputs(self) -> int:
        return 1 << len(self.outputs)

    @property
    def n_letters(self) -> int:
        return self.n_inputs * self.n_outputs

    def letter(self, i: int, o: int) -> int:
        return i * self.n_outputs + o

    def split(self, letter: int) -> tuple[int, int]:
        return divmod(letter, self.n_outputs)

    def _format(self, props, bits) -> str:
        if not props:
            return "T"
        parts = []
        for k, name in enumerate(props):
            parts.append(name if bits & (1 << k) else f"¬{name}")
        return " ∧ ".join(parts)

    def format_input(self, i: int) -> str:
        return self._format(self.inputs, i)

    def format_output(self, o: int) -> str:
        return self._format(self.outputs, o)

    def format_letter(self, letter: int) -> str:
        i, o = self.split(letter)
        if not self.inputs:
            return self.format_output(o)
        if not self.outputs:
            return self.format_input(i)
        return f"{self.format_input(i)} ∧ {self.format_output(o)}"

    def literals(self, letter: int) -> frozenset[tuple[str, bool]]:
        """The full valuation as (prop, value) literals."""
        i, o = self.split(letter)
        lits = {(name, bool(i & (1 << k))) for k, name in enumerate(self.inputs)}
        lits |= {(name, bool(o & (1 << k))) for k, name in enumerate(self.outputs)}
        return frozenset(lits)


def delta_from_table(
    alphabet: PropAlphabet, n: int, table: Mapping[tuple[int, int], int], complete: bool = False
) -> tuple[tuple[int, ...], ...]:
    """Rows ``delta[q][letter]`` of a (state, letter) -> state map over states
    0..n-1.  A missing entry raises ``IncompleteAutomaton``, or with
    ``complete`` set goes to a sink state n, whose row is appended."""
    rows = [[table.get((q, a)) for a in range(alphabet.n_letters)] for q in range(n)]
    missing = [(q, row.index(None)) for q, row in enumerate(rows) if None in row]
    if missing and not complete:
        q, letter = missing[0]
        raise IncompleteAutomaton(
            f"state {q} has no transition on {alphabet.format_letter(letter)}"
        )
    if missing:
        rows.append([None] * alphabet.n_letters)
    return tuple(tuple(n if t is None else t for t in row) for row in rows)


def _run(fa, letters: Sequence[int], start: Optional[int]) -> int:
    """State of a deterministic automaton after reading ``letters``."""
    q = fa.initial if start is None else start
    for letter in letters:
        q = fa.delta[q][letter]
    return q


def _lasso_inf(fa, stem: Sequence[int], cycle: Sequence[int]) -> set[int]:
    """States visited infinitely often on the word stem cycle^w."""
    if not cycle:
        raise ValueError("lasso cycle must be nonempty")
    q = _run(fa, stem, None)
    round_start = {}  # state at the start of a round -> its index in visited
    visited = []
    while q not in round_start:
        round_start[q] = len(visited)
        for letter in cycle:
            q = fa.delta[q][letter]
            visited.append(q)
    return set(visited[round_start[q]:])


@dataclass(frozen=True)
class DetParityAutomaton:
    """Complete deterministic parity automaton over full letters (min-even)."""

    alphabet: PropAlphabet
    priorities: tuple[int, ...]
    initial: int
    delta: tuple[tuple[int, ...], ...]  # delta[state][letter]
    labels: tuple[Optional[str], ...] = ()

    @property
    def n(self) -> int:
        return len(self.priorities)

    def step(self, q: int, i: int, o: int) -> int:
        return self.delta[q][self.alphabet.letter(i, o)]

    @classmethod
    def from_table(
        cls,
        alphabet: PropAlphabet,
        n: int,
        initial: int,
        priorities: Sequence[int],
        table: Mapping[tuple[int, int], int],
        complete: bool = False,
        labels: Optional[Sequence[Optional[str]]] = None,
    ) -> "DetParityAutomaton":
        """Build from a (state, letter) -> state map (see ``delta_from_table``).

        With ``complete`` set, missing entries go to a rejecting sink of
        priority 1 (undefined behavior counts against the specification).
        """
        delta = delta_from_table(alphabet, n, table, complete)
        priorities = tuple(priorities)
        labels = tuple(labels) if labels is not None else (None,) * n
        if len(delta) > n:
            priorities += (1,)
            labels += ("reject-sink",)
        return cls(
            alphabet=alphabet,
            priorities=priorities,
            initial=initial,
            delta=delta,
            labels=labels,
        )

    def run(self, letters: Sequence[int], start: Optional[int] = None) -> int:
        return _run(self, letters, start)

    def accepts_lasso(self, stem: Sequence[int], cycle: Sequence[int]) -> bool:
        """Acceptance of the ultimately periodic word stem cycle^w."""
        return Parity(self.priorities).accepts_inf(_lasso_inf(self, stem, cycle))


@dataclass(frozen=True)
class StreettAutomaton:
    """Complete deterministic automaton with state-based Streett acceptance."""

    alphabet: PropAlphabet
    n: int
    initial: int
    delta: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]
    labels: tuple[Optional[str], ...] = ()

    def run(self, letters: Sequence[int], start: Optional[int] = None) -> int:
        return _run(self, letters, start)

    def accepts_lasso(self, stem: Sequence[int], cycle: Sequence[int]) -> bool:
        """Acceptance of the ultimately periodic word stem cycle^w."""
        return Streett(self.pairs).accepts_inf(_lasso_inf(self, stem, cycle))
