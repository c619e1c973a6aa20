"""Command-line interface.

Exit codes: 0 success / positive answer, 1 negative analysis answer
(unrealizable, not winning), 2 input or usage error, 3 no assumption can
repair the specification (unsatisfiable, or fairness cannot help).
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction

from . import _kernels, structio
from .benchgen import BenchSpec, compare_backends, format_csv, run_benchmark
from .console import ConsoleState, eval_statement
from .errors import (
    NoFairnessAssumptionExists,
    OmegagamesError,
    SpecUnsatisfiable,
)
from .pgsolver import export_pgsolver, import_pgsolver
from .reductions import reduction_chain
from .solve import almost_sure_solve, cooperative_region
from .synthesis import check_realizability, dpa_to_synthesis_game

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NO_ASSUMPTION = 3


def _load_game(path: str):
    text = structio.read_text(path)
    if text.lstrip().startswith("<"):
        return structio.document_to_game(structio.parse_structure(text))
    return import_pgsolver(text)


def _load_synthesis_game(path: str):
    doc = structio.parse_structure(structio.read_text(path))
    return dpa_to_synthesis_game(structio.dpa_from_document(doc))


def _game_document(game, obj):
    """The game as a structure document.  PGSolver files carry no initial
    state and game documents need one, so such a game starts at state 0."""
    if game.initial is None:
        game = dataclasses.replace(game, initial=0)
    return structio.game_to_document(game, obj)


def _emit(text: str, out_path):
    if out_path:
        structio.write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _verdict(game, region) -> int:
    """Positive when the region holds the initial state, or, in a game
    without one, when it is not empty."""
    if game.initial is None:
        return EXIT_OK if region.states else EXIT_NEGATIVE
    return EXIT_OK if game.initial in region else EXIT_NEGATIVE


def _cmd_solve(args) -> int:
    game, obj = _load_game(args.file)
    region, strategy = almost_sure_solve(game, obj, args.player)
    print(f"winningRegion {args.player} = {region}")
    if args.strategy:
        print(strategy)
    return _verdict(game, region)


def _cmd_coop(args) -> int:
    game, obj = _load_game(args.file)
    region = cooperative_region(game, obj)
    print(f"cooperativeWinningRegion = {region}")
    return _verdict(game, region)


def _cmd_reduce(args) -> int:
    red = reduction_chain(*_load_game(args.file))[-1]
    _emit(structio.write_structure(_game_document(red.game, red.parity)), args.output)
    print(
        f"reduced to a 2-player parity game: {red.game.n} states, {red.game.edge_count} edges",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_synth(args) -> int:
    sg = _load_synthesis_game(args.file)
    if args.what == "check":
        ok, _ = check_realizability(sg)
        print("realizable" if ok else "unrealizable")
        return EXIT_OK if ok else EXIT_NEGATIVE
    repair = sg.repair
    if args.what == "safety":
        print(f"safety assumption: {len(repair.safety.safety_edges)} forbidden edges")
        for edge in sorted(repair.safety.safety_edges):
            print(f"  forbid {sg.describe_edge(edge)}")
    elif args.what == "fairness":
        fair = repair.assumption.fair_edges
        print(f"fairness assumption: {len(fair)} fair edges")
        for edge in sorted(fair):
            print(f"  fair {sg.describe_edge(edge)}")
    elif args.what == "assumption":
        doc = structio.streett_automaton_to_document(repair.automaton)
        _emit(structio.write_structure(doc), args.output)
    else:
        _emit(str(repair.transducer) + "\n", args.output)
    return EXIT_OK


def _counts(text: str) -> list[int]:
    """argparse type of ``--states``/``--edges``: a comma list of ints."""
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None


def _fraction(text: str) -> Fraction:
    """argparse type of ``--prob-frac``: a decimal or a ratio like 1/10."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _cmd_bench(args) -> int:
    if len(args.states) != len(args.edges):
        print("error: --states and --edges need the same number of entries", file=sys.stderr)
        return EXIT_INPUT
    specs = [
        BenchSpec(n, m, args.priorities, args.prob_frac, args.seed, args.reps)
        for n, m in zip(args.states, args.edges)
    ]
    if args.compare:
        compare_backends(specs, out=sys.stdout)
        return EXIT_OK
    rows = run_benchmark(specs, out=sys.stdout)
    if args.csv:
        sys.stdout.write(format_csv(rows))
    return EXIT_OK


def _cmd_repl(args) -> int:
    state = ConsoleState()
    prompt = "> " if sys.stdin.isatty() else ""
    while True:
        try:
            line = input(prompt)
        except EOFError:
            return EXIT_OK
        if line.strip() in ("exit", "quit"):
            return EXIT_OK
        try:
            state, output = eval_statement(state, line)
        except OmegagamesError as exc:
            print(f"error: {exc}")
            continue
        if output:
            print(output)


def _cmd_convert(args) -> int:
    game, obj = _load_game(args.file)
    if args.to == "pgsolver":
        _emit(export_pgsolver(game, obj), args.output)
    else:
        _emit(structio.write_structure(_game_document(game, obj)), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegagames",
        description="Qualitative solver for stochastic omega-regular games "
        "and environment-assumption synthesis.",
    )
    parser.add_argument(
        "--backend",
        choices=["auto", "compiled", "python"],
        default=None,
        help=f"fixpoint kernel to use (available: {', '.join(_kernels.available())})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="almost-sure winning region of a game file")
    p.add_argument("file")
    p.add_argument("--player", type=int, choices=[0, 1], required=True)
    p.add_argument("--strategy", action="store_true", help="also print the witness strategy")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("coop", help="cooperative winning region (2-player games)")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_coop)

    p = sub.add_parser("reduce", help="reduce to a 2-player parity game")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("synth", help="synthesis and environment assumptions")
    p.add_argument("what", choices=["check", "safety", "fairness", "assumption", "transducer"])
    p.add_argument("file", help="deterministic parity automaton (structure file)")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("bench", help="seeded random-game benchmark")
    p.add_argument("--states", type=_counts, required=True, help="state count, or comma list")
    p.add_argument("--edges", type=_counts, required=True, help="edge count, or comma list")
    p.add_argument("--priorities", type=int, default=3)
    p.add_argument("--prob-frac", type=_fraction, default="0.1",
                   help="fraction of probabilistic states")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--csv", action="store_true", help="also emit machine-readable CSV")
    p.add_argument("--compare", action="store_true", help="compare the available kernels")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("repl", help="interactive console")
    p.set_defaults(fn=_cmd_repl)

    p = sub.add_parser("convert", help="convert between structure and PGSolver formats")
    p.add_argument("--to", choices=["goal", "pgsolver"], required=True)
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_convert)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        with _kernels.using(args.backend):
            return args.fn(args)
    except (SpecUnsatisfiable, NoFairnessAssumptionExists) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ASSUMPTION
    except OmegagamesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
