"""Synthesis pipeline: realizability, environment assumptions, transducers.

A deterministic parity automaton over input/output propositions is split
into a synthesis game (environment picks the input letter, system answers
with an output letter).  When the game is lost, a minimal set of forbidden
environment edges (safety assumption) and a locally minimal set of fair
environment edges (strong transition fairness) repair the specification;
the result is exported as a Streett automaton.  Each candidate fair set is
checked by one kernel solve of the safe game with the fair edges as live
edges.  For the implementing Mealy machine, ``apply_fairness`` encodes the
final fair set as a 2.5-player game, again a ``SynthesisGame``, with
probabilistic fairness wrappers after its choice states; a memoryless
almost-sure winning strategy on it yields the machine.
``SynthesisGame.repair`` stages that sequence and computes each stage once,
on first use.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional

from .automata import DetParityAutomaton, PropAlphabet, StreettAutomaton
from .errors import (
    EnvDeadlocked,
    NoFairnessAssumptionExists,
    NotEnvEdge,
    SpecUnsatisfiable,
    StrategyIncomplete,
)
from .graph import PLAYER0, PLAYER1, PROBABILISTIC, GameGraph, _live_csr, build_game, explore
from .objectives import Parity
from .solve import _solve_parity, almost_sure_solve, cooperative_region, zielonka_solve
from .strategies import Strategy

EnvEdge = tuple[int, int]  # (environment state, input letter)


@dataclass(frozen=True)
class SynthesisGame:
    """The split game of a specification automaton.

    States 0..n_env-1 are the environment copies of the automaton states
    (player 1); state ``n_env + q * n_inputs + i`` is the system choice
    state entered when the environment plays input ``i`` at ``q``
    (player 0, neutral priority).  States past the choice states, if any,
    are the probabilistic fairness wrappers ``apply_fairness`` adds: the
    first successor of a wrapper is the environment state it wraps, and
    every edge into that state (and the initial designation) leads to the
    wrapper instead.  The sufficiency check builds no wrapper: it hands the
    fair edges to the kernel as live edges of their environment states.
    """

    graph: GameGraph
    parity: Parity
    automaton: DetParityAutomaton

    @property
    def alphabet(self) -> PropAlphabet:
        return self.automaton.alphabet

    @cached_property
    def n_env(self) -> int:
        return self.automaton.n

    @cached_property
    def n_inputs(self) -> int:
        return self.alphabet.n_inputs

    @cached_property
    def cooperative(self) -> frozenset[int]:
        """States from which a cooperating environment lets the system win."""
        return cooperative_region(self.graph, self.parity).states

    def choice_index(self, q: int, i: int) -> int:
        return self.n_env + q * self.n_inputs + i

    def env_edges(self) -> list[EnvEdge]:
        """Environment edges present in the (possibly pruned) game."""
        return [
            (q, (c - self.n_env) % self.n_inputs)
            for q in range(self.n_env)
            for c in self.graph.succ[q]
        ]

    def describe_edge(self, edge: EnvEdge) -> str:
        q, i = edge
        return f"({q},{self.choice_index(q, i)}) on {self.alphabet.format_input(i)}"

    def _check_env_edges(self, edges: Iterable[EnvEdge]) -> None:
        """Raise ``NotEnvEdge`` at the first edge not present in the game."""
        for edge in edges:
            q, i = edge
            if not (0 <= q < self.n_env and 0 <= i < self.n_inputs):
                raise NotEnvEdge(f"{edge} is not an environment edge of this game")
            if self.choice_index(q, i) not in self.graph.succ[q]:
                raise NotEnvEdge(
                    f"environment edge {self.describe_edge(edge)} is not present in the game"
                )

    def remove_env_edges(self, edges: Iterable[EnvEdge]) -> "SynthesisGame":
        """Copy of the game without the given environment edges.

        Pruning an unreachable environment state down to zero moves keeps
        its original edges instead (the game must stay non-blocking and the
        state is semantically invisible); emptying a reachable one raises
        ``EnvDeadlocked``.  An edge that is not present raises ``NotEnvEdge``.
        """
        drop = set(edges)
        if not drop:
            return self
        self._check_env_edges(drop)
        gone = {self.choice_index(q, i) for q, i in drop}
        succ = list(self.graph.succ)
        emptied = []
        for q in sorted({q for q, _i in drop}):
            kept = tuple([c for c in succ[q] if c not in gone])
            if kept:
                succ[q] = kept
            else:
                emptied.append(q)
        new_graph = replace(self.graph, succ=tuple(succ))
        if emptied:
            reachable, _ = explore(
                [new_graph.initial], lambda s, intern: [intern(t) for t in new_graph.succ[s]]
            )
            hit = [q for q in emptied if q in reachable]
            if hit:
                raise EnvDeadlocked(
                    f"safety removal leaves reachable environment states {hit} without moves"
                )
        return SynthesisGame(new_graph, self.parity, self.automaton)

    @cached_property
    def repair(self) -> "Repair":
        """The staged ``Repair``; raises ``SpecUnsatisfiable`` when there is none."""
        return Repair(self, *compute_safety_assumption(self))


@dataclass(frozen=True)
class Assumption:
    """Forbidden environment edges plus fair environment edges."""

    safety_edges: frozenset[EnvEdge]
    fair_edges: frozenset[EnvEdge]

    def __post_init__(self):
        object.__setattr__(self, "safety_edges", frozenset(self.safety_edges))
        object.__setattr__(self, "fair_edges", frozenset(self.fair_edges))
        both = self.safety_edges & self.fair_edges
        if both:
            raise ValueError(f"edges cannot be both forbidden and fair: {sorted(both)}")

    @property
    def is_trivial(self) -> bool:
        return not self.safety_edges and not self.fair_edges

    def __str__(self):
        return (
            f"assumption safety={sorted(self.safety_edges)} "
            f"fair={sorted(self.fair_edges)}"
        )


def dpa_to_synthesis_game(aut: DetParityAutomaton) -> SynthesisGame:
    """Split a specification automaton into the synthesis game.

    The environment moves first (one edge per input letter), the system
    answers (one edge per output letter, duplicate targets merged); choice
    states get a neutral priority above every automaton priority so that
    only automaton states decide acceptance.
    """
    alpha = aut.alphabet
    n_env = aut.n
    neutral = max(aut.priorities) + 1
    states = []
    for q in range(n_env):
        targets = [n_env + q * alpha.n_inputs + i for i in range(alpha.n_inputs)]
        label = aut.labels[q] if aut.labels else None
        states.append((PLAYER1, targets, label or f"q{q}"))
    prios = list(aut.priorities)
    for q in range(n_env):
        for i in range(alpha.n_inputs):
            targets = []
            for o in range(alpha.n_outputs):
                t = aut.step(q, i, o)
                if t not in targets:
                    targets.append(t)
            states.append((PLAYER0, targets, f"(q{q},{alpha.format_input(i)})"))
            prios.append(neutral)
    graph = build_game(states, initial=aut.initial)
    return SynthesisGame(graph, Parity(tuple(prios)), aut)


def check_realizability(sg: SynthesisGame) -> tuple[bool, Optional[Strategy]]:
    """Whether the system wins the synthesis game from its initial state."""
    w0, _, s0, _ = zielonka_solve(sg.graph, sg.parity)
    if sg.graph.initial in w0.states:
        return True, s0
    return False, None


def compute_safety_assumption(sg: SynthesisGame) -> tuple[Assumption, SynthesisGame]:
    """Minimal forbidden-edge set: environment edges leaving the cooperative
    winning region.  Returns the assumption and the pruned (safe) game.

    Raises ``SpecUnsatisfiable`` when even full cooperation cannot satisfy
    the specification from the initial state.
    """
    coop = sg.cooperative
    if sg.graph.initial not in coop:
        raise SpecUnsatisfiable(
            "the specification cannot be satisfied even with a cooperating environment"
        )
    safety = frozenset(
        (q, i)
        for (q, i) in sg.env_edges()
        if q in coop and sg.choice_index(q, i) not in coop
    )
    safe = sg.remove_env_edges(safety)
    return Assumption(safety, frozenset()), safe


def apply_fairness(sg: SynthesisGame, fair: Iterable[EnvEdge]) -> SynthesisGame:
    """Encode strong transition fairness probabilistically.

    For each environment state with fair edges, a uniform probabilistic
    wrapper over the state itself (first) and the fair edges' targets is
    appended after the choice states and intercepts every incoming edge
    (and the initial-state designation).  Without fair edges the game is
    returned as it is.
    """
    fair = sorted(set(fair))
    g = sg.graph
    if not fair:
        return sg
    sg._check_env_edges(fair)
    by_state: dict[int, list[int]] = {}
    for q, i in fair:
        by_state.setdefault(q, []).append(i)
    wrapped = {q: g.n + k for k, q in enumerate(by_state)}

    succ = [
        ss if wrapped.keys().isdisjoint(ss) else tuple([wrapped.get(t, t) for t in ss])
        for ss in g.succ
    ]
    labels = list(g.labels or (None,) * g.n)
    prios = list(sg.parity.priorities)
    for q, inputs in by_state.items():
        succ.append((q, *(sg.choice_index(q, i) for i in inputs)))
        labels.append(f"fair({g.label(q) or q})")
        prios.append(sg.parity.priorities[q])
    owners = g.owners + (PROBABILISTIC,) * len(by_state)
    initial = wrapped.get(g.initial, g.initial)
    graph = GameGraph(owners, tuple(succ), {}, tuple(labels), initial)
    return SynthesisGame(graph, Parity(tuple(prios)), sg.automaton)


def check_sufficiency(sg: SynthesisGame, asm: Assumption) -> bool:
    """Whether the assumption makes the specification realizable: after the
    safety edges are removed, the system must win from the initial state
    when the fair edges are live, which is winning it with probability 1
    in ``apply_fairness``'s game.  The kernel solves the safe game's own
    CSR, cached on its graph (without safety edges the safe game is ``sg``
    itself, so a search flattens once), with the fair edges' live rows
    merged into those of its probabilistic states: no wrapped game is built."""
    safe = sg.remove_env_edges(asm.safety_edges)
    fair = sorted(asm.fair_edges)
    safe._check_env_edges(fair)
    g = safe.graph
    # a fair edge leaves an environment state, which is never probabilistic
    rows = {s: g.succ[s] for s in g.probabilistic_states} if g.flat.live else {}
    for q, i in fair:
        rows.setdefault(q, []).append(safe.choice_index(q, i))
    winner, _, _ = _solve_parity(g, safe.parity, _live_csr(g.n, rows))
    return winner[g.initial] == PLAYER0


def minimize_fairness(sg: SynthesisGame) -> Assumption:
    """Locally minimal fairness assumption on a safety-pruned game.

    QuickXplain (Junker, AAAI 2004) over the environment edges in
    descending (state, input letter) order.  Sufficiency is monotone in the
    fair set, so this keeps exactly the edges an ascending deletion pass
    keeps: an edge stays when it is needed beside the kept edges below it
    and every edge above it.  The full set is checked first, then the empty
    set, then at most 2·|F|·(⌈log₂|E|⌉ + 1) subsets, for |F| kept edges out
    of |E|; the recursion is ⌈log₂|E|⌉ deep.  Raises
    ``NoFairnessAssumptionExists`` when even the full edge set is
    insufficient.
    """

    def sufficient(edges):
        return check_sufficiency(sg, Assumption(frozenset(), frozenset(edges)))

    def explain(base, changed, candidates):
        if changed and sufficient(base):
            return []
        if len(candidates) == 1:
            return candidates
        c1, c2 = candidates[: len(candidates) // 2], candidates[len(candidates) // 2 :]
        d2 = explain(base + c1, bool(c1), c2)
        d1 = explain(base + d2, bool(d2), c1)
        return d1 + d2

    edges = sorted(sg.env_edges(), reverse=True)
    if not sufficient(edges):
        raise NoFairnessAssumptionExists(
            "the specification stays unrealizable under full transition fairness"
        )
    if sufficient(()):
        return Assumption(frozenset(), frozenset())
    return Assumption(frozenset(), frozenset(explain([], False, edges)))


def assumption_to_streett_automaton(sg: SynthesisGame, asm: Assumption) -> StreettAutomaton:
    """The assumption as a deterministic Streett automaton over full letters.

    States are the environment states plus an all-accepting sink (entered
    once the system itself leaves the cooperative region: the original
    specification premise is broken, the assumption holds vacuously), a
    rejecting sink (entered on forbidden edges) and marker copies flagging
    that a fair edge was just taken.  One Streett pair per fair edge - the
    states representing its source versus its markers - plus one pair
    sending every run through the rejecting sink to rejection.
    """
    alpha = sg.alphabet
    coop = sg.cooperative
    fair = sorted(asm.fair_edges)
    safety = asm.safety_edges

    def expand(key, intern):
        if key[0] in ("acc", "rej"):
            return [intern(key)] * alpha.n_letters
        q = key[1] if key[0] == "env" else key[2]
        row = []
        for letter in range(alpha.n_letters):
            i, o = alpha.split(letter)
            edge = (q, i)
            if edge in safety:
                row.append(intern(("rej",)))
                continue
            q2 = sg.automaton.step(q, i, o)
            if q2 not in coop:
                row.append(intern(("acc",)))
            elif edge in asm.fair_edges:
                row.append(intern(("mark", edge, q2)))
            else:
                row.append(intern(("env", q2)))
        return row

    init_env = sg.graph.initial
    nodes, delta = explore([("env", init_env) if init_env in coop else ("acc",)], expand)

    def represents(key, q):
        return (key[0] == "env" and key[1] == q) or (key[0] == "mark" and key[2] == q)

    pairs = []
    for edge in fair:
        src = edge[0]
        request = frozenset(idx for idx, key in enumerate(nodes) if represents(key, src))
        response = frozenset(
            idx for idx, key in enumerate(nodes) if key[0] == "mark" and key[1] == edge
        )
        pairs.append((request, response))
    rej = nodes.get(("rej",))
    if rej is not None:
        pairs.append((frozenset({rej}), frozenset()))

    labels = []
    for key in nodes:
        if key[0] == "env":
            labels.append(f"q{key[1]}")
        elif key[0] == "acc":
            labels.append("sink-accept")
        elif key[0] == "rej":
            labels.append("sink-reject")
        else:
            labels.append(f"q{key[2]} via fair {sg.describe_edge(key[1])}")
    return StreettAutomaton(
        alphabet=alpha,
        n=len(nodes),
        initial=0,
        delta=tuple(tuple(row) for row in delta),
        pairs=tuple(pairs),
        labels=tuple(labels),
    )


@dataclass(frozen=True)
class Transducer:
    """Mealy machine implementing the specification under the assumption."""

    alphabet: PropAlphabet
    initial: int
    moves: tuple[tuple[tuple[int, int], ...], ...]  # moves[state][input] = (output, next)

    @property
    def n(self) -> int:
        return len(self.moves)

    def step(self, state: int, i: int) -> tuple[int, int]:
        return self.moves[state][i]

    def run(self, inputs) -> list[int]:
        """Output letters produced on an input letter sequence."""
        q = self.initial
        out = []
        for i in inputs:
            o, q = self.moves[q][i]
            out.append(o)
        return out

    def __str__(self):
        lines = [f"transducer: {self.n} states, initial {self.initial}"]
        for s, row in enumerate(self.moves):
            for i, (o, t) in enumerate(row):
                lines.append(
                    f"  {s}: {self.alphabet.format_input(i)} / "
                    f"{self.alphabet.format_output(o)} -> {t}"
                )
        return "\n".join(lines)


def _minimize_mealy(moves, initial):
    """Merge output- and successor-equivalent states (partition refinement)."""
    n = len(moves)
    cls = {}
    by_sig = {}
    for s in range(n):
        sig = tuple(o for o, _t in moves[s])
        cls[s] = by_sig.setdefault(sig, len(by_sig))
    while True:
        by_sig = {}
        nxt = {}
        for s in range(n):
            sig = (cls[s], tuple(cls[t] for _o, t in moves[s]))
            nxt[s] = by_sig.setdefault(sig, len(by_sig))
        if len(by_sig) == len(set(cls.values())):
            cls = nxt
            break
        cls = nxt
    reps = {}
    for s in range(n):
        reps.setdefault(cls[s], s)
    remap = {c: k for k, c in enumerate(sorted(reps, key=lambda c: reps[c]))}
    out_moves = []
    for c in sorted(remap, key=remap.get):
        s = reps[c]
        out_moves.append(tuple((o, remap[cls[t]]) for o, t in moves[s]))
    return tuple(out_moves), remap[cls[initial]]


def extract_transducer(sg: SynthesisGame, strategy: Strategy) -> Transducer:
    """Mealy machine read off a memoryless winning strategy.

    Walks the environment states reachable under the strategy; a fairness
    wrapper stands for the state it wraps, its first successor.  Inputs the
    assumption forbids get the strategy's answer when it has one and the
    least output letter otherwise.  The result is quotiented by Mealy
    equivalence.  A strategy with memory raises ``ValueError``.
    """
    if not strategy.is_memoryless:
        raise ValueError("transducer extraction expects a memoryless strategy")
    graph = sg.graph
    alpha = sg.alphabet
    if graph.initial is None:
        raise ValueError("transducer extraction needs an initial state")

    def unwrap(x):
        return graph.succ[x][0] if graph.owners[x] == PROBABILISTIC else x

    def expand(key, intern):
        q, live = key
        row = []
        for i in range(alpha.n_inputs):
            c = sg.choice_index(q, i)
            x = strategy.choice(c) if live else None
            if x is not None:
                q2 = unwrap(x)
                o = next(o for o in range(alpha.n_outputs) if sg.automaton.step(q, i, o) == q2)
                nxt = (q2, True)
            elif live and c in graph.succ[q]:
                raise StrategyIncomplete(f"no choice at state {c} ({graph.label(c)})")
            else:
                # input the assumption forbids (or a don't-care successor of
                # one): answer with the least output letter
                o = 0
                nxt = (sg.automaton.step(q, i, o), False)
            row.append((o, intern(nxt)))
        return tuple(row)

    _, moves = explore([(unwrap(graph.initial), True)], expand)
    minimized, initial = _minimize_mealy(tuple(moves), 0)
    return Transducer(alphabet=alpha, initial=initial, moves=minimized)


@dataclass(frozen=True)
class Repair:
    """The repair of ``sg``: the safety assumption and the game ``safe``
    without its edges are given; the fairness search, the Streett automaton
    and the transducer each run on first access, once."""

    sg: SynthesisGame
    safety: Assumption
    safe: SynthesisGame

    @cached_property
    def assumption(self) -> Assumption:
        """The safety edges plus a locally minimal set of fair edges."""
        fair = minimize_fairness(self.safe)
        return Assumption(self.safety.safety_edges, fair.fair_edges)

    @cached_property
    def automaton(self) -> StreettAutomaton:
        return assumption_to_streett_automaton(self.sg, self.assumption)

    @cached_property
    def transducer(self) -> Transducer:
        """A system that wins the fairness-wrapped safe game almost surely,
        read off the memoryless strategy ``almost_sure_solve`` returns."""
        fg = apply_fairness(self.safe, self.assumption.fair_edges)
        _, strategy = almost_sure_solve(fg.graph, fg.parity, PLAYER0)
        return extract_transducer(fg, strategy)
