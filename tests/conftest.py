"""Shared fixtures: deterministic game samplers, the two worked-example
specifications, a strategy-soundness checker used by several suites, and
the compiled kernel built from the shipped ``_core.c``."""
import importlib.util
import itertools
import os
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

import omegagames
from omegagames import _kernels
from omegagames.automata import DetParityAutomaton, PropAlphabet
from omegagames.benchgen import SplitMix64
from omegagames.errors import OmegagamesError
from omegagames.graph import PLAYER0, PLAYER1, PROBABILISTIC, build_game
from omegagames.objectives import Parity

DATA = Path(__file__).parent / "data"


def child_env(**extra):
    """The current environment with the directory holding the imported
    ``omegagames`` package first on ``PYTHONPATH``, so a child process runs
    the same code as this one whatever its working directory (a relative
    ``PYTHONPATH=src`` does not survive ``cwd=tmp_path``), plus ``extra``."""
    env = os.environ.copy()
    root = str(Path(omegagames.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def read_outcome(read, text):
    """``read(text)``, or its typed error as (type, message)."""
    try:
        return read(text)
    except OmegagamesError as exc:
        return type(exc), str(exc)


def sample_game(rng, max_states=6, max_degree=3, owners=(PLAYER0, PLAYER1, PROBABILISTIC)):
    """One random valid game: every state keeps at least one successor."""
    n = 2 + rng.below(max_states - 1)
    states = []
    for _ in range(n):
        degree = 1 + rng.below(min(max_degree, n))
        targets = []
        while len(targets) < degree:
            t = rng.below(n)
            if t not in targets:
                targets.append(t)
        states.append((owners[rng.below(len(owners))], targets))
    return build_game(states, initial=0)


def sample_parity(rng, n, priorities=3):
    return Parity(tuple(rng.below(priorities) for _ in range(n)))


def sample_pairs(rng, n, max_pairs=2):
    pairs = []
    for _ in range(1 + rng.below(max_pairs)):
        q = {s for s in range(n) if rng.below(2)}
        r = {s for s in range(n) if rng.below(2)}
        pairs.append((q, r))
    return pairs


def sample_lasso(rng, game):
    """A random valid lasso: walk until a state repeats, split there."""
    walk = [rng.below(game.n)]
    seen = {}
    while walk[-1] not in seen:
        seen[walk[-1]] = len(walk) - 1
        succ = game.succ[walk[-1]]
        walk.append(succ[rng.below(len(succ))])
    cut = seen[walk[-1]]
    from omegagames.objectives import Lasso

    return Lasso(tuple(walk[:cut]), tuple(walk[cut:-1]))


def repeated_grant_automaton() -> DetParityAutomaton:
    """GF g and G(c -> not g), over input c / output g (three states)."""
    alpha = PropAlphabet(inputs=("c",), outputs=("g",))
    table = {}
    rows = {
        0: {(0, 0): 0, (0, 1): 2, (1, 0): 0, (1, 1): 1},
        1: {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1},
        2: {(0, 0): 0, (0, 1): 2, (1, 0): 0, (1, 1): 1},
    }
    for src, row in rows.items():
        for (i, o), dst in row.items():
            table[(src, alpha.letter(i, o))] = dst
    return DetParityAutomaton.from_table(alpha, 3, 0, (1, 1, 0), table)


def request_grant_automaton() -> DetParityAutomaton:
    """G(r -> g) and G(c -> not g), over inputs r, c / output g (two states)."""
    alpha = PropAlphabet(inputs=("r", "c"), outputs=("g",))
    table = {}
    for i in range(4):
        r, c = bool(i & 1), bool(i & 2)
        for o in range(2):
            g = bool(o)
            violates = (r and not g) or (c and g)
            table[(0, alpha.letter(i, o))] = 1 if violates else 0
            table[(1, alpha.letter(i, o))] = 1
    return DetParityAutomaton.from_table(alpha, 2, 0, (0, 1), table)


def opponent_strategies(game, opponent):
    """All pure memoryless strategies of ``opponent`` as dicts."""
    theirs = [s for s in range(game.n) if game.owners[s] == opponent]
    for picks in itertools.product(*(game.succ[s] for s in theirs)):
        yield dict(zip(theirs, picks))


def strategy_wins_almost_surely(game, obj, player, region, strategy):
    """Check the witness: against every memoryless opponent, every play from
    the region satisfies the objective with probability one.

    The product of the game with the strategy memory is a finite Markov
    chain once both strategies are fixed; acceptance is evaluated on the
    projection of each bottom SCC.
    """
    for tau in opponent_strategies(game, 1 - player):
        # explicit product chain over (state, memory)
        index = {}
        order = []
        succ = []

        def intern(key):
            if key not in index:
                index[key] = len(order)
                order.append(key)
                succ.append(None)
            return index[key]

        for s in sorted(region.states):
            intern((s, strategy.memory_initial))
        qi = 0
        while qi < len(order):
            s, m = order[qi]
            m2 = strategy.update(m, s)
            if game.owners[s] == player:
                t = strategy.choice(s, m)
                if t is None:
                    return False
                targets = [t]
            elif game.owners[s] == 1 - player:
                targets = [tau[s]]
            else:
                targets = list(game.support(s))
            succ[qi] = [intern((t, m2)) for t in targets]
            qi += 1
        from omegagames.solve import _chain_verdicts

        class _Projected:
            def accepts_inf(self, states):
                return obj.accepts_inf({order[k][0] for k in states})

        verdicts = _chain_verdicts(len(order), succ, _Projected())
        for s in sorted(region.states):
            if not verdicts[index[(s, strategy.memory_initial)]]:
                return False
    return True


@pytest.fixture
def rng():
    return SplitMix64(0xC0FFEE)


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel, built from the shipped ``_core.c`` with the
    interpreter's C compiler and headers.  Skips when there is no compiler;
    a failed build fails the test."""
    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    if shutil.which(link[0]) is None:
        pytest.skip(f"no C compiler ({link[0]}) to build the compiled kernel")
    source = Path(_kernels.__file__).parent / "_core.c"
    target = tmp_path_factory.mktemp("kernel") / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [
        *link, *shlex.split(sysconfig.get_config_var("CCSHARED") or "-fPIC"), "-O2",
        "-I" + sysconfig.get_paths()["include"], str(source), "-o", str(target),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode:
        pytest.fail(f"building the compiled kernel failed:\n{shlex.join(cmd)}\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("omegagames._kernels._core", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["python", "compiled"])
def kernel_name(request, monkeypatch):
    """Each kernel's name, with the built compiled kernel installed for the test."""
    if request.param == "compiled":
        monkeypatch.setattr(_kernels, "_core", request.getfixturevalue("compiled_kernel"))
    return request.param
