"""The compiled kernel and the pure-Python kernel must agree bit for bit,
and the process-wide kernel choice must reach every kernel call."""
import hashlib
import inspect
import io
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

from omegagames import _kernels
from omegagames.benchgen import BenchSpec, SplitMix64, random_game
from omegagames.cli import cli_main
from omegagames.errors import KernelUnavailable
from omegagames.graph import PLAYER0, PLAYER1, PROBABILISTIC, build_game

from .conftest import DATA, child_env, sample_game, sample_parity
from .reference_gadget import global_gadget


def test_backend_selection():
    assert _kernels.resolve("python").NAME == "python"
    assert _kernels.resolve("auto").NAME == _kernels.available()[0]
    before = _kernels.active()
    with _kernels.using("python") as kern:
        assert kern is _kernels.active() is _kernels.resolve("python")
        assert _kernels.default_name() == "python"
    assert _kernels.active() is before
    with pytest.raises(KernelUnavailable):
        with _kernels.using("fortran"):
            pass
    assert _kernels.active() is before


_REPL_SESSION = f"""$g = SynthesisGame readFile {shlex.quote(str(DATA / 'request_grant.xml'))}
$g assumptionAutomaton
"""


@pytest.mark.parametrize("name", _kernels.available())
@pytest.mark.parametrize("command", ["synth", "repl"])
def test_cli_backend_reaches_every_kernel_call(name, command, monkeypatch, capsys):
    """``--backend NAME`` sends every kernel call of the assumption export
    (realizability, cooperative regions, sufficiency solves) to that kernel,
    in batch commands and in the console alike."""
    calls = {}
    for kernel in map(_kernels.resolve, _kernels.available()):
        for fn in ("attract", "solve_parity"):
            original = getattr(kernel, fn)

            def counted(*args, _original=original, _name=kernel.NAME):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(kernel, fn, counted)
    if command == "synth":
        argv = ["--backend", name, "synth", "assumption", str(DATA / "request_grant.xml")]
    else:
        argv = ["--backend", name, "repl"]
        monkeypatch.setattr("sys.stdin", io.StringIO(_REPL_SESSION))
    assert cli_main(argv) == 0
    assert "error" not in capsys.readouterr().out
    assert set(calls) == {name}


def test_attract_agreement_on_random_games(compiled_kernel):
    pure = _kernels.resolve("python")
    fast = compiled_kernel
    rng = SplitMix64(0xA77AC7)
    for _ in range(200):
        g = sample_game(rng, max_states=8)
        flat = g.flat
        targets = [rng.below(g.n) for _ in range(rng.below(g.n + 1))]
        exist = (bool(rng.below(2)), bool(rng.below(2)), bool(rng.below(2)))
        args = (
            flat.n, flat.owners, flat.succ_ptr, flat.succ, flat.pred_ptr, flat.pred,
            targets, exist,
        )
        assert pure.attract(*args) == fast.attract(*args)


def _opens_leak_frame(kern, flat, prios):
    """Whether the recursion on this game opens a leak frame in the first
    child of its top frame: the least priority is even and a probabilistic
    state outside player 0's attractor of it has a successor inside."""
    m = min(prios)
    if m % 2:
        return False
    targets = [s for s in range(flat.n) if prios[s] == m]
    order, _ = kern.attract(
        flat.n, flat.owners, flat.succ_ptr, flat.succ, flat.pred_ptr, flat.pred,
        targets, (True, False, False),
    )
    removed = set(order)
    return any(
        flat.owners[s] == PROBABILISTIC and s not in removed
        and any(t in removed for t in flat.succ[flat.succ_ptr[s]:flat.succ_ptr[s + 1]])
        for s in range(flat.n)
    )


def test_solve_parity_agreement_on_random_games(compiled_kernel):
    """300 seeded 2-player games, then 400 with probabilistic states, read
    as player 1's with live edges, of which at least 100 open a leak frame."""
    pure = _kernels.resolve("python")
    fast = compiled_kernel
    rng = SplitMix64(0x50CCE4)
    leaky = 0
    for trial in range(700):
        if trial < 300:
            g = sample_game(rng, max_states=9, owners=(PLAYER0, PLAYER1))
            par = sample_parity(rng, g.n, priorities=4)
        else:
            g = sample_game(rng, max_states=12)
            par = sample_parity(rng, g.n, priorities=1 + rng.below(5))
            leaky += _opens_leak_frame(pure, g.flat, par.priorities)
        flat = g.flat
        args = (
            flat.n, flat.owners, list(par.priorities),
            flat.succ_ptr, flat.succ, flat.pred_ptr, flat.pred,
        )
        assert pure.solve_parity(*args) == fast.solve_parity(*args)
    assert leaky >= 100


def test_solve_parity_agreement_on_benchmark_game(compiled_kernel):
    game, parity = random_game(BenchSpec(400, 1600, 3, 0, seed=17))
    flat = game.flat
    args = (
        flat.n, flat.owners, list(parity.priorities),
        flat.succ_ptr, flat.succ, flat.pred_ptr, flat.pred,
    )
    pure = _kernels.resolve("python").solve_parity(*args)
    fast = compiled_kernel.solve_parity(*args)
    assert pure == fast


_EXIST_PATTERNS = (
    (True, False, False), (False, True, False), (True, False, True), (False, True, True),
)
# sha256 of the outputs below, computed with the kernels of 7ede7e5
_PINNED_DIGEST = "d1b6c737537d1697fcf7227d8cf75078c92500445c4d7c7dfae67abd69283fa8"
# sha256 of ``solve_parity`` on the 2.5-player games below, computed when
# the kernels first read probabilistic states as live player-1 states
_PINNED_STOCHASTIC_DIGEST = "049efb9092e1e59696eecf66794b10972c413e0119c68600bc2823742cb12314"


def _digest_games():
    """(game, priorities) pairs: seeded 2-player random games, 2.5-player
    ones each followed by its 2-player reference gadget (arms up to E* at
    every probabilistic state), and a 300-state chain (state s owned by
    s mod 2, priority s, a self-loop and an edge to s + 1)."""
    games = []
    for seed in range(10):
        n = 20 + 8 * seed
        games.append(random_game(BenchSpec(n, 3 * n, 1 + seed % 6, 0, seed=seed)))
    for seed in range(6):
        n = 12 + 6 * seed
        game, parity = random_game(BenchSpec(n, 3 * n, 2 + seed % 4, Fraction(1, 4), seed=seed))
        games += [(game, parity), global_gadget(game, parity)]
    games = [(game, list(parity.priorities)) for game, parity in games]
    n = 300
    chain = build_game([(s % 2, [s, s + 1] if s + 1 < n else [s]) for s in range(n)])
    return games + [(chain, list(range(n)))]


def test_kernel_outputs_match_pinned_digest(kernel_name):
    """``solve_parity`` and ``attract`` (four ``exist`` patterns) return
    exactly what the kernels returned before the lazy successor count, and
    ``solve_parity`` on the 2.5-player games what it returned when it first
    took them: the twin tests compare the kernels with each other, so they
    cannot see a change that both share."""
    kern = _kernels.resolve(kernel_name)
    h = hashlib.sha256()
    stochastic = hashlib.sha256()
    rng = SplitMix64(0xD16E57)
    for game, prios in _digest_games():
        f = game.flat
        csr = (f.n, f.owners, f.succ_ptr, f.succ, f.pred_ptr, f.pred)
        solved = repr(kern.solve_parity(f.n, f.owners, prios, *csr[2:])).encode()
        (h if game.is_two_player else stochastic).update(solved)
        for exist in _EXIST_PATTERNS:
            targets = [rng.below(f.n) for _ in range(1 + rng.below(f.n // 4 + 1))]
            h.update(repr(kern.attract(*csr, targets, exist)).encode())
    assert h.hexdigest() == _PINNED_DIGEST
    assert stochastic.hexdigest() == _PINNED_STOCHASTIC_DIGEST


def test_kernel_handles_empty_and_degenerate_inputs(kernel_name):
    kern = _kernels.resolve(kernel_name)
    assert kern.solve_parity(0, [], [], [0], [], [0], []) == ([], [], [])
    assert kern.attract(0, [], [0], [], [0], [], [], (True, True, True)) == ([], [])
    # two states, each the other's only successor
    csr = (2, [0, 1], [0, 1, 2], [1, 0], [0, 1, 2], [1, 0])
    assert kern.attract(*csr, [], (True, True, False)) == ([], [-1, -1])
    # repeated targets seed the queue once each, in their given order
    assert kern.attract(*csr, [1, 0, 1], (False, True, False)) == ([1, 0], [-1, -1])
    assert kern.attract(*csr, [1, 1], (True, False, False)) == ([1, 0], [1, -1])
    # a probabilistic state of priority 1 with an edge to player 0's
    # even self-loop: it leaks, so player 0 wins it almost surely
    leak = (2, [2, 0], [1, 0], [0, 2, 3], [0, 1, 1], [0, 1, 3], [0, 0, 1])
    assert kern.solve_parity(*leak) == ([0, 0], [-1, 1], [-1, -1])


def test_kernels_are_twins_in_signature(compiled_kernel):
    """Both kernels take the same parameter names, so a call by keyword
    means the same on either."""
    pure = _kernels.resolve("python")
    for fn in ("attract", "solve_parity"):
        names = list(inspect.signature(getattr(pure, fn)).parameters)
        assert names == list(inspect.signature(getattr(compiled_kernel, fn)).parameters), fn
    assert list(inspect.signature(pure.attract).parameters) == [
        "n", "owners", "succ_ptr", "succ", "pred_ptr", "pred", "targets", "exist",
    ]


def test_compiled_kernel_rejects_malformed_arrays(compiled_kernel):
    """The C kernel checks every array against the state count, so a bad
    call raises instead of reading or writing out of bounds."""
    csr = (2, [0, 1], [0, 1, 2], [1, 0], [0, 1, 2], [1, 0])
    exist = (True, True, False)
    for targets, error in (
        ([2], ValueError), ([-1], ValueError), ([0.5], TypeError),
        (["a"], TypeError), (None, TypeError), ([2**40], OverflowError),
    ):
        with pytest.raises(error):
            compiled_kernel.attract(*csr, targets, exist)
    for succ_ptr, pred_ptr in (([0, 1], [0, 1, 2]), ([0, 1, 3], [0, 1, 2]), ([0, 1, 2], [0, 1])):
        with pytest.raises(ValueError):
            compiled_kernel.attract(2, [0, 1], succ_ptr, [1, 0], pred_ptr, [1, 0], [0], exist)
    # a successor out of range, and a succ shorter than succ_ptr says
    for succ in ([1, 2], [1]):
        with pytest.raises(ValueError):
            compiled_kernel.attract(2, [0, 1], [0, 1, 2], succ, [0, 1, 2], [1, 0], [0], exist)
    with pytest.raises(ValueError):
        compiled_kernel.solve_parity(2, [0, 1], [0, 1], [0, 1, 2], [1, 2], [0, 1, 2], [1, 0])
    with pytest.raises(OverflowError):
        compiled_kernel.solve_parity(2, [0, 1], [0, 2**31], [0, 1, 2], [1, 0], [0, 1, 2], [1, 0])


_MEMCHECK = """
import importlib.util, sys
from omegagames._kernels import pure
from omegagames.benchgen import SplitMix64
from omegagames.graph import build_game

spec = importlib.util.spec_from_file_location("omegagames._kernels._core", sys.argv[1])
fast = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fast)
rng = SplitMix64(0xDEB06)
for k in range(400):
    n = k % 13
    owners = 3 if k % 2 else 2
    states = [
        (rng.below(owners), sorted({rng.below(n) for _ in range(1 + rng.below(3))}))
        for _ in range(n)
    ]
    f = build_game(states).flat
    csr = (f.n, f.owners, f.succ_ptr, f.succ, f.pred_ptr, f.pred)
    targets = [rng.below(n) for _ in range(rng.below(4))] if n else []
    exist = tuple(bool(rng.below(2)) for _ in range(3))
    args = (*csr, targets, exist)
    assert fast.attract(*args) == pure.attract(*args), k
    prio = [rng.below(5) for _ in range(n)]
    args = (f.n, f.owners, prio, f.succ_ptr, f.succ, f.pred_ptr, f.pred)
    assert fast.solve_parity(*args) == pure.solve_parity(*args), k
    # the error paths free their buffers too
    for bad in ([n], [0.5], None):
        try:
            fast.attract(*csr, bad, exist)
        except (ValueError, TypeError):
            pass
        else:
            raise AssertionError((k, bad))
    # a successor out of range, and a succ shorter than succ_ptr says
    for bad in ([n, *f.succ[1:]], f.succ[:-1]) if n else ():
        try:
            fast.attract(f.n, f.owners, f.succ_ptr, bad, f.pred_ptr, f.pred, targets, exist)
        except ValueError:
            pass
        else:
            raise AssertionError((k, bad))
# a deep recursion: every frame removes states and restores them
n = 300
f = build_game([(s % 2, [s, s + 1] if s + 1 < n else [s]) for s in range(n)]).flat
args = (f.n, f.owners, list(range(n)), f.succ_ptr, f.succ, f.pred_ptr, f.pred)
assert fast.solve_parity(*args) == pure.solve_parity(*args)
# the chain reversed, every third state probabilistic: leak frames open
f = build_game([(2 if s % 3 == 1 else s % 2, [s, s - 1] if s else [s]) for s in range(n)]).flat
args = (f.n, f.owners, list(range(n)), f.succ_ptr, f.succ, f.pred_ptr, f.pred)
assert fast.solve_parity(*args) == pure.solve_parity(*args)
print("ok")
"""


def test_compiled_kernel_under_debug_allocator(compiled_kernel):
    """Agreement with the pure kernel on a few hundred seeded games (n = 0
    included, half of them with probabilistic states, and calls that raise)
    and on two 300-state chains, one with probabilistic states, in a child
    whose debug allocator aborts on a buffer overrun or a double free in
    the C code."""
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", _MEMCHECK, compiled_kernel.__file__],
        capture_output=True, text=True, timeout=300, env=child_env(PYTHONMALLOC="debug"),
    )
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_full_pipeline_identical_across_backends(compiled_kernel, monkeypatch):
    """Regions and witness strategies of the almost-sure pipeline must be
    bit-identical whichever kernel computed them."""
    monkeypatch.setattr(_kernels, "_core", compiled_kernel)
    from omegagames.objectives import Rabin, Streett
    from omegagames.solve import almost_sure_solve

    from .conftest import sample_pairs

    rng = SplitMix64(0xB0B0)
    for trial in range(60):
        g = sample_game(rng, max_states=7)
        if trial % 3 == 0:
            pairs = sample_pairs(rng, g.n)
            obj = Streett(pairs) if trial % 2 else Rabin(pairs)
        else:
            obj = sample_parity(rng, g.n)
        for player in (0, 1):
            with _kernels.using("python"):
                r_py, s_py = almost_sure_solve(g, obj, player)
            with _kernels.using("compiled"):
                r_c, s_c = almost_sure_solve(g, obj, player)
            assert r_py.states == r_c.states
            assert s_py.choices == s_c.choices
            assert s_py.updates == s_c.updates
            assert s_py.memory_initial == s_c.memory_initial
