"""Turn-based probabilistic game graphs and the basic graph fixpoints.

A game graph partitions its states between player 0, player 1 and
probabilistic states.  A probabilistic state's distribution is supported
on exactly its outgoing edges, uniform unless the caller gave weights;
every solver in this package reads only the support, never the weights, so
qualitative results are independent of the exact probabilities.

``build_game`` is the one constructor that validates, and every game from
outside the package enters through it.  Games derived from a valid game
(reductions, subgames, fairness wrappers) are valid by construction, so
they are built without a second check: straight from owner, successor and
label columns with the trusted ``GameGraph`` constructor, sharing their
source's successor tuples for the states they leave unchanged.  Likewise
``check_objective`` is the one check that an objective fits its game: the
reductions, both game exports and every solver but the oracle make it, and
``explore`` is the one search that numbers product states: the record
product, the assumption automaton and the transducer are each built by it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence, get_args

from . import _kernels
from .errors import DeadEndCreated, InvalidGame, RandomSupportBroken
from .objectives import Parity
from .strategies import MEMORYLESS, Strategy

PLAYER0 = 0
PLAYER1 = 1
PROBABILISTIC = 2

EXISTENTIAL = "existential"
UNIVERSAL = "universal"


@dataclass(frozen=True)
class Violation:
    """One broken game invariant, naming the offending state/edge."""

    rule: str
    state: Optional[int]
    detail: str

    def __str__(self):
        where = f" at state {self.state}" if self.state is not None else ""
        return f"{self.rule}{where}: {self.detail}"


@dataclass(frozen=True)
class GameGraph:
    """Immutable turn-based probabilistic game graph.

    States are dense indices 0..n-1.  ``succ`` holds the ordered adjacency
    list of each state.  ``given_weights`` maps a probabilistic state to
    the weights a caller gave for it, parallel to its edges; every other
    probabilistic state is uniform over its edges.  ``labels`` is empty or
    holds one entry per state, as it does in every derived game.  The
    constructor trusts its arguments: ``build_game`` is the validating one.
    """

    owners: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    given_weights: Mapping[int, tuple[Fraction, ...]] = field(default_factory=dict)
    labels: tuple[Optional[str], ...] = ()
    initial: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.owners)

    @property
    def edge_count(self) -> int:
        return sum(len(ss) for ss in self.succ)

    def label(self, s: int) -> Optional[str]:
        return self.labels[s] if self.labels else None

    def support(self, s: int) -> tuple[int, ...]:
        """Targets of the distribution of a probabilistic state."""
        return self.succ[s]

    def weights(self, s: int) -> tuple[Fraction, ...]:
        """Weights of the distribution of a probabilistic state, parallel
        to its edges."""
        given = self.given_weights.get(s)
        if given is not None:
            return given
        k = len(self.succ[s])
        return (Fraction(1, k),) * k

    @property
    def probabilistic_states(self) -> tuple[int, ...]:
        return tuple(s for s in range(self.n) if self.owners[s] == PROBABILISTIC)

    @property
    def is_two_player(self) -> bool:
        return PROBABILISTIC not in self.owners

    @cached_property
    def flat(self) -> "_Flat":
        return _flatten(self)

    def __str__(self):
        kind = "2-player" if self.is_two_player else "2.5-player"
        init = "-" if self.initial is None else self.initial
        return f"{kind} game: {self.n} states, {self.edge_count} edges, initial={init}"


class _Flat:
    """CSR view of a game graph shared by both fixpoint kernels."""

    __slots__ = ("n", "owners", "succ_ptr", "succ", "pred_ptr", "pred")

    def __init__(self, n, owners, succ_ptr, succ, pred_ptr, pred):
        self.n = n
        self.owners = owners
        self.succ_ptr = succ_ptr
        self.succ = succ
        self.pred_ptr = pred_ptr
        self.pred = pred


def _flatten(g: GameGraph) -> _Flat:
    n = g.n
    owners = g.owners
    succ_ptr = [0] * (n + 1)
    succ = []
    for s in range(n):
        succ.extend(g.succ[s])
        succ_ptr[s + 1] = len(succ)
    indeg = [0] * n
    for t in succ:
        indeg[t] += 1
    pred_ptr = [0] * (n + 1)
    for s in range(n):
        pred_ptr[s + 1] = pred_ptr[s] + indeg[s]
    fill = list(pred_ptr)
    pred = [0] * len(succ)
    for s in range(n):
        for t in g.succ[s]:
            pred[fill[t]] = s
            fill[t] += 1
    return _Flat(n, owners, succ_ptr, succ, pred_ptr, pred)


def build_game(
    states: Sequence,
    initial: Optional[int] = None,
    weights: Optional[Mapping[int, Sequence]] = None,
) -> GameGraph:
    """The game of ``(owner, successors[, label])`` tuples, validated.

    Probabilistic states are uniform over their successors unless
    ``weights`` maps them to weights parallel to the successor list.
    Raises ``InvalidGame`` listing every broken invariant, or every
    argument of the wrong shape or type.
    """
    owners, succ, labels, given, violations = _typed_arguments(states, initial, weights)
    if not violations:
        g = GameGraph(owners, succ, given, labels, initial)
        violations = validate_game(g)
    if violations:
        raise InvalidGame(violations)
    return g


def _typed_arguments(states, initial, weights):
    """``build_game``'s arguments as owner, successor and label columns and
    a state -> weight tuple map, plus a violation for every value of the
    wrong shape or type.  ``validate_game`` assumes well-typed values and
    would fail on these with untyped errors."""
    out = []
    owners = []
    succ = []
    labels = []
    try:
        states = list(states)
    except TypeError:
        out.append(Violation("bad-entry", None, f"states must be a sequence, not {type(states).__name__}"))
        states = []
    for s, entry in enumerate(states):
        if not isinstance(entry, (tuple, list)) or len(entry) not in (2, 3):
            out.append(Violation("bad-entry", s, "expected an (owner, successors[, label]) tuple"))
            continue
        owner, targets, label = entry if len(entry) == 3 else (*entry, None)
        if not isinstance(owner, int):
            out.append(Violation("bad-owner", s, f"owner {owner!r} is not an integer"))
        try:
            targets = tuple(targets)
        except TypeError:
            out.append(Violation("bad-entry", s, "successors must be a sequence of states"))
            continue
        for t in targets:
            if not isinstance(t, int):
                out.append(Violation("bad-target", s, f"edge target {t!r} is not a state index"))
        if label is not None and not isinstance(label, str):
            out.append(Violation("bad-label", s, f"label {label!r} is not a string"))
        owners.append(owner)
        succ.append(targets)
        labels.append(label)
    given = {}
    if weights is not None and not isinstance(weights, Mapping):
        out.append(Violation("bad-weight", None, "weights must map states to weight sequences"))
        weights = None
    for s, ws in (weights or {}).items():
        if not isinstance(s, int):
            out.append(Violation("bad-weight", None, f"weights given for {s!r}, which is not a state index"))
            continue
        try:
            given[s] = tuple(Fraction(w) for w in ws)
        except (TypeError, ValueError, ArithmeticError):
            out.append(Violation("bad-weight", s, f"weights {ws!r} are not numbers"))
    if initial is not None and not isinstance(initial, int):
        out.append(Violation("bad-initial", None, f"initial state {initial!r} is not a state index"))
    return tuple(owners), tuple(succ), tuple(labels), given, out


def validate_game(g: GameGraph) -> list[Violation]:
    """Collect every invariant violation of ``g`` (empty list means valid)."""
    out = []
    n = g.n
    for s in range(n):
        targets = g.succ[s]
        if not targets:
            out.append(Violation("dead-end", s, "state has no outgoing edge"))
        seen = set()
        for t in targets:
            if not (0 <= t < n):
                out.append(Violation("bad-target", s, f"edge target {t} out of range"))
            elif t in seen:
                out.append(Violation("duplicate-edge", s, f"duplicate edge target {t}"))
            seen.add(t)
    for s, owner in enumerate(g.owners):
        if owner not in (PLAYER0, PLAYER1, PROBABILISTIC):
            out.append(Violation("bad-owner", s, f"unknown owner {owner}"))
    for s, ws in g.given_weights.items():
        if s not in range(n) or g.owners[s] != PROBABILISTIC:
            out.append(Violation("unexpected-distribution", s, "weights given for a non-probabilistic state"))
        elif len(ws) != len(g.succ[s]):
            out.append(Violation("support-mismatch", s, f"{len(ws)} weights given for {len(g.succ[s])} edges"))
        else:
            for t, w in zip(g.succ[s], ws):
                if w <= 0:
                    out.append(Violation("weight-not-positive", s, f"weight {w} on target {t}"))
    if g.initial is not None and not (0 <= g.initial < n):
        out.append(Violation("bad-initial", None, f"initial state {g.initial} out of range"))
    return out


def _check_states(g: GameGraph, states: Iterable) -> list[int]:
    """The distinct ``states``, sorted; raises ``ValueError`` for a non-state of ``g``."""
    n, states = g.n, set(states)
    for s in states:
        if not (isinstance(s, int) and 0 <= s < n):
            raise ValueError(f"{s!r} is not a state of the game (0..{n - 1})")
    return sorted(states)


def check_objective(g: GameGraph, obj, kinds) -> None:
    """Raise unless ``obj`` is one of ``kinds`` (a class or a union) and fits
    ``g``: ``TypeError`` for another class, ``ValueError`` for any other
    mismatch with ``g``.  Streett/Rabin without pairs fit every game."""
    if not isinstance(obj, kinds):
        names = " or ".join(k.__name__ for k in get_args(kinds) or (kinds,))
        raise TypeError(f"{names} objective required, got {obj!r}")
    if not isinstance(obj, Parity):
        _check_states(g, frozenset().union(*(side for pair in obj.pairs for side in pair)))
    elif len(obj.priorities) != g.n:
        raise ValueError(f"objective maps {len(obj.priorities)} states, game has {g.n}")


def subgame(g: GameGraph, keep: Iterable[int]) -> tuple[GameGraph, dict[int, int]]:
    """Induced game on ``keep``, plus the old-index -> new-index map.

    Raises ``ValueError`` if ``keep`` holds a non-state,
    ``DeadEndCreated`` if a kept state loses all successors and
    ``RandomSupportBroken`` if a probabilistic state loses part of its
    support (probabilistic states must be kept with all their successors).
    """
    kept = _check_states(g, keep)
    index = {s: i for i, s in enumerate(kept)}
    succ = []
    for s in kept:
        if g.owners[s] == PROBABILISTIC:
            lost = [t for t in g.succ[s] if t not in index]
            if lost:
                raise RandomSupportBroken(
                    f"probabilistic state {s} loses successors {lost}"
                )
        targets = tuple([index[t] for t in g.succ[s] if t in index])
        if not targets:
            raise DeadEndCreated(f"state {s} has no successor inside the kept set")
        succ.append(targets)
    owners = tuple([g.owners[s] for s in kept])
    weights = {index[s]: ws for s, ws in g.given_weights.items() if s in index}
    labels = tuple([g.label(s) for s in kept])
    return GameGraph(owners, tuple(succ), weights, labels, index.get(g.initial)), index


def attractor(
    g: GameGraph,
    player: int,
    target: Iterable[int],
    random_mode: Optional[str] = None,
) -> tuple[frozenset[int], Strategy]:
    """Least set from which ``player`` can force reaching ``target``.

    Probabilistic states join the attractor when some (``EXISTENTIAL``) or
    all (``UNIVERSAL``) of their successors are already in it; the mode is
    mandatory for games with probabilistic states.  The returned memoryless
    strategy sends every attracted state of ``player`` one BFS rank closer
    to the target.
    """
    if player not in (PLAYER0, PLAYER1):
        raise ValueError(f"player must be 0 or 1, got {player}")
    targets = _check_states(g, target)
    if not g.is_two_player and random_mode not in (EXISTENTIAL, UNIVERSAL):
        raise ValueError("random_mode is required for games with probabilistic states")
    exist = (
        player == PLAYER0,
        player == PLAYER1,
        random_mode == EXISTENTIAL,
    )
    flat = g.flat
    order, choice = _kernels.active().attract(
        flat.n, flat.owners, flat.succ_ptr, flat.succ, flat.pred_ptr, flat.pred, targets, exist
    )
    region = frozenset(order)
    target_set = set(targets)
    choices = {
        (MEMORYLESS, s): choice[s]
        for s in order
        if s not in target_set and g.owners[s] == player and choice[s] >= 0
    }
    return region, Strategy(player, choices=choices)


@dataclass(frozen=True)
class Scc:
    """A strongly connected component; ``nontrivial`` iff it has an internal edge."""

    states: tuple[int, ...]
    nontrivial: bool


def scc_decompose(g: GameGraph) -> list[Scc]:
    """Maximal SCCs of the game graph in reverse topological order
    (successors first)."""
    succ = g.succ
    sccs = []
    for comp in _tarjan(succ, [True] * g.n):
        comp.sort()
        comp_set = set(comp)
        nontrivial = any(t in comp_set for s in comp for t in succ[s])
        sccs.append(Scc(tuple(comp), nontrivial))
    return sccs


def _tarjan(succ: Sequence[Sequence[int]], enabled: Sequence[bool]) -> list[list[int]]:
    """Iterative Tarjan over the states where ``enabled`` is true.

    Returns the SCCs in reverse topological order: every edge leaving a
    component leads into an earlier one.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if not enabled[root] or index[root] != -1:
            continue
        # Explicit DFS stack: (state, iterator position into succ[state]).
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            targets = succ[v]
            while i < len(targets):
                w = targets[i]
                i += 1
                if not enabled[w]:
                    continue
                if index[w] == -1:
                    work.append((v, i))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return comps


def explore(roots: Iterable, expand: Callable) -> tuple[dict, list]:
    """Breadth-first search numbering each key the first time it is seen.

    ``roots`` get the first numbers, in their order (a repeated root keeps
    its first number).  Then ``expand(key, intern)`` runs on each key in
    number order, where ``intern(key)`` returns a key's number, numbering
    and queueing it if it is new.  Returns the key -> number dict, whose
    order is the number order, and the rows ``expand`` returned, one per key.
    """
    index: dict = {}
    keys: list = []

    def intern(key):
        got = index.get(key)
        if got is None:
            got = index[key] = len(keys)
            keys.append(key)
        return got

    for key in roots:
        intern(key)
    # the loop also visits the keys that ``expand`` appends as it goes
    return index, [expand(key, intern) for key in keys]
