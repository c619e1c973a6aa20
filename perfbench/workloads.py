"""The benchmark's workloads: seeded inputs, one operation, certification.

A workload's input pool is generated by ``inputs(seed)``, one input per
step.  ``op(inp)`` runs one operation on fresh program objects and returns
its outputs; ``fingerprint(out)`` condenses them so repeated operations on
the same input can be compared; ``certify(inp, out)`` returns the list of
failed checks (see certify.py).

Every workload imports the program lazily, after the caller has pinned the
kernel and put the sources on the path.
"""
from __future__ import annotations

import tempfile
from pathlib import Path

import certify

OUT = Path(__file__).resolve().parent / "out"

# stoch-parity-xml: random 2.5-player parity games from benchgen
XML_POOL = 16
XML_STATES = 3000
XML_EDGES = 15000
XML_PRIORITIES = 8

# streett-lar: random 2-player games with one Streett pair
LAR_POOL = 24
LAR_STATES = 800
LAR_DEGREE = 4

# synth-repair: random unrealizable parity specifications, 2 inputs, 2 outputs
SYN_POOL = 28
SYN_STATES = 30
SYN_PRIORITIES = 3


def _rng(seed, salt):
    from omegagames.benchgen import SplitMix64

    return SplitMix64((seed * 0x9E3779B1 + salt) & ((1 << 64) - 1))


# ---------------------------------------------------------------------------
# stoch-parity-xml


class StochParityXml:
    """``omegagames solve GAME.xml``: read, parse, convert, solve both players.

    The games are written to files at set-up, in a temporary directory
    under ``perfbench/out/`` that is removed when the process ends, so the
    pool holds only their paths and spec seeds.  Certification rebuilds
    each game from its spec.
    """

    name = "stoch-parity-xml"

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self.dir = tempfile.TemporaryDirectory(prefix="xml-", dir=OUT)

    @staticmethod
    def spec(seed):
        from fractions import Fraction

        from omegagames.benchgen import BenchSpec

        return BenchSpec(XML_STATES, XML_EDGES, XML_PRIORITIES, Fraction(1, 10), seed)

    def inputs(self, seed):
        from omegagames import structio
        from omegagames.benchgen import random_game

        rng = _rng(seed, 1)
        for k in range(XML_POOL):
            spec_seed = rng.next_u64()
            game, parity = random_game(self.spec(spec_seed))
            path = Path(self.dir.name) / f"game{k}.xml"
            path.write_text(structio.write_structure(structio.game_to_document(game, parity)), encoding="utf-8")
            yield {"path": path, "spec_seed": spec_seed}

    def op(self, inp):
        from omegagames import structio
        from omegagames.solve import almost_sure_solve

        text = inp["path"].read_text(encoding="utf-8")
        game, parity = structio.document_to_game(structio.parse_structure(text))
        text = None
        r0, s0 = almost_sure_solve(game, parity, 0)
        r1, s1 = almost_sure_solve(game, parity, 1)
        return game, parity, r0, s0, r1, s1

    def fingerprint(self, out):
        _g, _p, r0, s0, r1, s1 = out
        return hash((r0.states, r1.states, frozenset(s0.choices.items()), frozenset(s1.choices.items())))

    def certify(self, inp, out):
        game, parity, r0, s0, r1, s1 = out
        from omegagames.benchgen import random_game

        ref, ref_parity = random_game(self.spec(inp["spec_seed"]))
        owners, succ, prio = ref.owners, ref.succ, ref_parity.priorities
        errors = []
        if (game.owners, game.succ, parity.priorities, game.initial) != (owners, succ, prio, ref.initial):
            errors.append("parsed game differs from the generated one")
            return errors
        if r0.states & r1.states:
            errors.append("W0 and W1 overlap")
        for player, region, strategy in ((0, r0, s0), (1, r1, s1)):
            choice = {s: t for (_m, s), t in strategy.choices.items()}
            for e in certify.check_almost_sure(owners, succ, prio, player, region.states, choice):
                errors.append(f"player {player}: {e}")
        return errors

    def sizes(self, inp):
        return {"states": XML_STATES, "edges": XML_EDGES, "bytes": inp["path"].stat().st_size}


# ---------------------------------------------------------------------------
# streett-lar


class StreettLar:
    """Almost-sure Streett solving of a 2-player game through the LAR product."""

    name = "streett-lar"

    def inputs(self, seed):
        rng = _rng(seed, 2)
        n = LAR_STATES
        for _ in range(LAR_POOL):
            owners = [rng.below(2) for _ in range(n)]
            succ = []
            for _s in range(n):
                targets = []
                while len(targets) < LAR_DEGREE:
                    t = rng.below(n)
                    if t not in targets:
                        targets.append(t)
                succ.append(targets)
            q = [s for s in range(n) if rng.below(4) == 0]
            r = [s for s in range(n) if rng.below(4) == 0]
            yield {"owners": owners, "succ": succ, "q": q, "r": r}

    def op(self, inp):
        from omegagames.graph import build_game
        from omegagames.objectives import Streett
        from omegagames.solve import almost_sure_solve

        game = build_game(list(zip(inp["owners"], inp["succ"])), initial=0)
        obj = Streett([(inp["q"], inp["r"])])
        r0, s0 = almost_sure_solve(game, obj, 0)
        r1, s1 = almost_sure_solve(game, obj, 1)
        return r0, s0, r1, s1

    def fingerprint(self, out):
        r0, s0, r1, s1 = out
        return hash(
            (
                r0.states,
                r1.states,
                frozenset(s0.choices.items()),
                frozenset(s0.updates.items()),
                frozenset(s1.choices.items()),
                frozenset(s1.updates.items()),
            )
        )

    def certify(self, inp, out):
        r0, s0, r1, s1 = out
        owners, succ = inp["owners"], inp["succ"]
        pairs = [(frozenset(inp["q"]), frozenset(inp["r"]))]
        errors = certify.check_partition(len(owners), r0.states, r1.states)
        for player, region, strategy in ((0, r0, s0), (1, r1, s1)):
            for e in certify.check_streett_witness(
                owners, succ, pairs, player, region.states, strategy, streett_side=player == 0
            ):
                errors.append(f"player {player}: {e}")
        return errors

    def sizes(self, inp):
        return {"states": len(inp["owners"]), "edges": sum(map(len, inp["succ"]))}


# ---------------------------------------------------------------------------
# synth-repair


def random_spec(rng, n, sink):
    """A deterministic parity automaton table over 2 inputs and 2 outputs.

    Each (state, input) has one default target; about 1 output in 4 goes to
    a random target instead.  With ``sink``, state n-1 is a rejecting sink
    (priority 1, self-loops) and about 1 default target in 8 is the sink.
    """
    m = n - 1 if sink else n
    prios = [rng.below(SYN_PRIORITIES) for _ in range(m)]
    delta = []
    for _q in range(m):
        row = [0] * 16
        for i in range(4):
            base = m if sink and rng.below(8) == 0 else rng.below(m)
            for o in range(4):
                row[i * 4 + o] = rng.below(n) if rng.below(4) == 0 else base
        delta.append(tuple(row))
    if sink:
        prios.append(1)
        delta.append((m,) * 16)
    return tuple(prios), tuple(delta)


class SynthRepair:
    """The whole repair of one unrealizable specification."""

    name = "synth-repair"

    def __init__(self):
        self.lassos = certify.input_lassos(4)
        self.lassos_assumed = []

    @staticmethod
    def automaton(inp):
        from omegagames.automata import DetParityAutomaton, PropAlphabet

        alpha = PropAlphabet(inputs=("a", "b"), outputs=("x", "y"))
        return DetParityAutomaton(alpha, inp["prio"], 0, inp["delta"])

    def inputs(self, seed):
        """Candidates are drawn in sequence and kept when the repair
        applies: the specification is unrealizable, satisfiable with a
        cooperating environment, and repairable by full fairness.  Every
        other kept specification has a rejecting sink."""
        from omegagames.errors import SpecUnsatisfiable
        from omegagames.synthesis import (
            Assumption,
            check_realizability,
            check_sufficiency,
            compute_safety_assumption,
            dpa_to_synthesis_game,
        )

        rng = _rng(seed, 3)
        kept = 0
        while kept < SYN_POOL:
            prio, delta = random_spec(rng, SYN_STATES, sink=kept % 2 == 0)
            inp = {"prio": prio, "delta": delta}
            sg = dpa_to_synthesis_game(self.automaton(inp))
            if check_realizability(sg)[0]:
                continue
            try:
                _asm, safe = compute_safety_assumption(sg)
            except SpecUnsatisfiable:
                continue
            full = Assumption(frozenset(), frozenset(safe.env_edges()))
            if check_sufficiency(safe, full):
                kept += 1
                yield inp

    def op(self, inp):
        from omegagames.solve import almost_sure_solve
        from omegagames.synthesis import (
            Assumption,
            apply_fairness,
            assumption_to_streett_automaton,
            check_realizability,
            compute_safety_assumption,
            dpa_to_synthesis_game,
            extract_transducer,
            minimize_fairness,
        )

        sg = dpa_to_synthesis_game(self.automaton(inp))
        realizable, _ = check_realizability(sg)
        safety, safe = compute_safety_assumption(sg)
        fair = minimize_fairness(safe)
        combined = Assumption(safety.safety_edges, fair.fair_edges)
        streett = assumption_to_streett_automaton(sg, combined)
        fg = apply_fairness(safe, fair.fair_edges)
        region, strategy = almost_sure_solve(fg.graph, fg.parity, 0)
        transducer = extract_transducer(fg, strategy)
        return sg, realizable, safe, combined, streett, fg, region, strategy, transducer

    def fingerprint(self, out):
        _sg, realizable, _safe, combined, streett, _fg, region, strategy, transducer = out
        return hash(
            (
                realizable,
                combined.safety_edges,
                combined.fair_edges,
                streett.delta,
                streett.pairs,
                region.states,
                frozenset(strategy.choices.items()),
                transducer.moves,
                transducer.initial,
            )
        )

    def certify(self, inp, out):
        from omegagames.synthesis import Assumption, check_sufficiency

        sg, realizable, safe, combined, streett, fg, region, strategy, transducer = out
        prio, delta = inp["prio"], inp["delta"]
        n_env, n_in, n_out = len(prio), 4, 4
        owners, succ, gprio = certify.split_game(delta, prio, n_in, n_out)
        errors = []
        if (list(sg.graph.owners), list(sg.graph.succ), list(sg.parity.priorities)) != (
            owners, succ, gprio
        ):
            return ["the program's split game differs from the specification's"]

        # unrealizable: an independent solve gives an environment witness
        (_w0, w1), (_c0, c1) = certify.zielonka(owners, succ, gprio, [True] * len(owners))
        if realizable or 0 not in w1:
            errors.append("the specification is not unrealizable")
        for e in certify.check_almost_sure(owners, succ, gprio, 1, w1, c1):
            errors.append(f"environment witness: {e}")

        # safety edges are exactly the edges leaving the cooperative region
        coop = certify.cooperative_region(succ, gprio)
        leaving = {
            (q, i)
            for q in range(n_env)
            if q in coop
            for i in range(n_in)
            if n_env + q * n_in + i not in coop
        }
        if not combined.safety_edges <= leaving:
            errors.append("a safety edge does not leave the cooperative region")
        if leaving - combined.safety_edges:
            errors.append("an edge leaving the cooperative region is not forbidden")

        # sufficiency: the witness certifies on the documented fair game
        fowners, fsucc, fprio, finit = certify.fair_game(
            owners, succ, gprio, 0, n_env, n_in, combined.safety_edges, combined.fair_edges
        )
        if (list(fg.graph.owners), list(fg.graph.succ), list(fg.parity.priorities), fg.graph.initial) != (
            fowners, fsucc, fprio, finit
        ):
            return errors + ["the program's fair game differs from the documented encoding"]
        if finit not in region.states:
            errors.append("the initial state is outside the almost-sure region")
        choice = {s: t for (_m, s), t in strategy.choices.items()}
        for e in certify.check_almost_sure(fowners, fsucc, fprio, 0, region.states, choice):
            errors.append(f"fair game witness: {e}")

        # local minimality: dropping any single fair edge breaks sufficiency
        for edge in sorted(combined.fair_edges):
            trial = Assumption(frozenset(), combined.fair_edges - {edge})
            if check_sufficiency(safe, trial):
                errors.append(f"fair edge {edge} can be dropped")

        # transducer runs the assumption accepts satisfy the specification
        lasso_errors, assumed = certify.check_transducer(
            (delta, prio, 0),
            (streett.delta, streett.pairs, streett.initial),
            (transducer.moves, transducer.initial),
            n_out,
            self.lassos,
        )
        self.lassos_assumed.append(assumed)
        return errors + lasso_errors[:5]

    def sizes(self, inp):
        return {"states": len(inp["prio"])}


WORKLOADS = {w.name: w for w in (StochParityXml, StreettLar, SynthRepair)}
