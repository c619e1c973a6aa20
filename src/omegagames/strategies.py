"""Strategies and winning regions.

A strategy couples a finite memory automaton with a choice function.  The
play convention is Mealy-style: visiting states ``s0 s1 ...`` with memory
values ``m0 m1 ...``, the choice at ``s_k`` is taken with memory ``m_k``
and only afterwards does the memory update with ``s_k`` (so
``m_{k+1} = update(m_k, s_k)``).  Memoryless strategies have the single
memory value ``MEMORYLESS``, no updates, and choices keyed
``(MEMORYLESS, state)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Optional

MEMORYLESS = 0


@dataclass(frozen=True)
class Strategy:
    player: int
    memory_initial: Hashable = MEMORYLESS
    choices: Mapping = field(default_factory=dict)  # (memory, state) -> successor
    updates: Mapping = field(default_factory=dict)  # (memory, state) -> memory; missing = unchanged

    @property
    def is_memoryless(self) -> bool:
        return not self.updates

    @property
    def memory_size(self) -> int:
        mems = {self.memory_initial}
        mems.update(m for m, _ in self.choices)
        mems.update(self.updates.values())
        return len(mems)

    def choice(self, state: int, memory: Optional[Hashable] = None) -> Optional[int]:
        """Chosen successor at ``state`` under ``memory`` (None if undefined)."""
        if memory is None:
            memory = self.memory_initial
        return self.choices.get((memory, state))

    def update(self, memory: Hashable, state: int) -> Hashable:
        return self.updates.get((memory, state), memory)

    def domain(self) -> frozenset[int]:
        """States with a defined choice under some memory value."""
        return frozenset(s for _, s in self.choices)

    def __str__(self):
        if self.is_memoryless:
            moves = ", ".join(
                f"{s}->{t}" for (_, s), t in sorted(self.choices.items(), key=lambda kv: kv[0][1])
            )
            return f"strategy player={self.player} memory=1 {{{moves}}}"
        return (
            f"strategy player={self.player} memory={self.memory_size} "
            f"({len(self.choices)} choices)"
        )


@dataclass(frozen=True)
class Region:
    """A set of winning states.  The player and the mode (sure, almost-sure
    or cooperative) are those of the call that returned it."""

    states: frozenset[int]

    def __contains__(self, s: int) -> bool:
        return s in self.states

    def __iter__(self):
        return iter(sorted(self.states))

    def __len__(self):
        return len(self.states)

    def __str__(self):
        inner = ", ".join(str(s) for s in sorted(self.states))
        return "{" + inner + "}"
