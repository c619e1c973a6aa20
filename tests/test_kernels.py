"""The compiled kernel and the pure-Python kernel must agree bit for bit,
and the process-wide kernel choice must reach every kernel call."""
import io
import re
import shlex
from pathlib import Path

import pytest

from omegagames import _kernels
from omegagames.benchgen import BenchSpec, SplitMix64, random_game
from omegagames.cli import cli_main
from omegagames.errors import KernelUnavailable
from omegagames.graph import PLAYER0, PLAYER1

from .conftest import DATA, sample_game, sample_parity


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


def test_shipped_core_c_matches_core_pyx():
    """``_core.c`` is generated from ``_core.pyx`` and shipped for builds
    without Cython.  Cython quotes the source around every C block: line N,
    marked with ``# <<<``, and up to two lines either side.  Every quoted
    line must equal the ``.pyx`` line it names, and every top-level
    definition of the ``.pyx`` must be quoted, so an edit to either file
    that is not regenerated into the other fails here."""
    kernels = Path(_kernels.__file__).parent
    pyx = (kernels / "_core.pyx").read_text(encoding="utf-8").splitlines()
    c_lines = (kernels / "_core.c").read_text(encoding="utf-8").splitlines()
    opener = '/* "omegagames/_kernels/_core.pyx":'
    arrow = "             # <<<<<<<<<<<<<<"
    marked = set()
    for k, line in enumerate(c_lines):
        if not line.lstrip().startswith(opener):
            continue
        number = int(line.lstrip()[len(opener):])
        end = c_lines.index("*/", k)
        block = [text[3:] for text in c_lines[k + 1:end]]
        at = [i for i, text in enumerate(block) if text.endswith(arrow)]
        assert len(at) == 1, f"_core.c line {k + 1}: no single marked line"
        block[at[0]] = block[at[0]][: -len(arrow)]
        first = number - at[0]
        for i, text in enumerate(block):
            assert 1 <= first + i <= len(pyx), f"_core.c line {k + 1} quotes past the .pyx"
            assert text == pyx[first + i - 1].rstrip(), (
                f"_core.c line {k + 2 + i} quotes {text!r} as _core.pyx line "
                f"{first + i}, which is {pyx[first + i - 1]!r}"
            )
        marked.add(number)
    definitions = [
        n for n, text in enumerate(pyx, 1) if re.match(r"(cp?def|def) ", text)
    ]
    assert definitions and set(definitions) <= marked, (
        f"_core.pyx definitions on lines {sorted(set(definitions) - marked)} "
        "are missing from _core.c"
    )


def test_attract_agreement_on_random_games(compiled_kernel):
    pure = _kernels.resolve("python")
    fast = compiled_kernel
    rng = SplitMix64(0xA77AC7)
    for _ in range(200):
        g = sample_game(rng, max_states=8)
        flat = g.flat
        targets = sorted({s for s in range(g.n) if rng.below(3) == 0})
        alive = [1 if rng.below(5) else 0 for _ in range(g.n)]
        for t in targets:
            alive[t] = 1
        live = [sum(alive[t] for t in g.succ[s]) for s in range(g.n)]
        exist = (bool(rng.below(2)), bool(rng.below(2)), bool(rng.below(2)))
        args = (
            flat.n, flat.owners, flat.succ_ptr, flat.succ,
            flat.pred_ptr, flat.pred, alive, live, targets, exist,
        )
        assert pure.attract(*args) == fast.attract(*args)


def test_solve_parity_agreement_on_random_games(compiled_kernel):
    pure = _kernels.resolve("python")
    fast = compiled_kernel
    rng = SplitMix64(0x50CCE4)
    for _ in range(300):
        g = sample_game(rng, max_states=9, owners=(PLAYER0, PLAYER1))
        par = sample_parity(rng, g.n, priorities=4)
        flat = g.flat
        args = (
            flat.n, flat.owners, list(par.priorities),
            flat.succ_ptr, flat.succ, flat.pred_ptr, flat.pred,
        )
        assert pure.solve_parity(*args) == fast.solve_parity(*args)


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


def test_pure_solver_handles_empty_game():
    pure = _kernels.resolve("python")
    assert pure.solve_parity(0, [], [], [0], [], [0], []) == ([], [], [])


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
