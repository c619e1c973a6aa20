"""Qualitative analysis of turn-based probabilistic games with omega-regular
objectives, plus environment-assumption synthesis for unrealizable parity
specifications."""

from .automata import DetParityAutomaton, PropAlphabet, StreettAutomaton
from .benchgen import BenchSpec, SplitMix64, random_game, run_benchmark
from .errors import OmegagamesError
from .graph import (
    EXISTENTIAL,
    PLAYER0,
    PLAYER1,
    PROBABILISTIC,
    UNIVERSAL,
    GameGraph,
    attractor,
    build_game,
    scc_decompose,
    subgame,
    validate_game,
)
from .objectives import (
    Lasso,
    Parity,
    Rabin,
    Streett,
    accepts_lasso,
    buchi_parity,
    cobuchi_parity,
    complement,
)
from .reductions import (
    ReductionResult,
    dual_game,
    lar_reduce,
    lift_lasso,
    pullback_strategy,
    reduce_stochastic_parity,
)
from .solve import (
    almost_sure_solve,
    cooperative_region,
    oracle_solve,
    zielonka_solve,
)
from .strategies import Region, Strategy
from .synthesis import (
    Assumption,
    SynthesisGame,
    Transducer,
    apply_fairness,
    assumption_to_streett_automaton,
    check_realizability,
    check_sufficiency,
    compute_safety_assumption,
    dpa_to_synthesis_game,
    extract_transducer,
    minimize_fairness,
)

__version__ = "0.1.0"

__all__ = [
    "Assumption",
    "BenchSpec",
    "DetParityAutomaton",
    "EXISTENTIAL",
    "GameGraph",
    "Lasso",
    "OmegagamesError",
    "PLAYER0",
    "PLAYER1",
    "PROBABILISTIC",
    "Parity",
    "PropAlphabet",
    "Rabin",
    "ReductionResult",
    "Region",
    "SplitMix64",
    "Strategy",
    "Streett",
    "StreettAutomaton",
    "SynthesisGame",
    "Transducer",
    "UNIVERSAL",
    "accepts_lasso",
    "almost_sure_solve",
    "apply_fairness",
    "assumption_to_streett_automaton",
    "attractor",
    "buchi_parity",
    "build_game",
    "check_realizability",
    "check_sufficiency",
    "cobuchi_parity",
    "complement",
    "compute_safety_assumption",
    "cooperative_region",
    "dpa_to_synthesis_game",
    "dual_game",
    "extract_transducer",
    "lar_reduce",
    "lift_lasso",
    "minimize_fairness",
    "oracle_solve",
    "pullback_strategy",
    "random_game",
    "reduce_stochastic_parity",
    "run_benchmark",
    "scc_decompose",
    "subgame",
    "validate_game",
    "zielonka_solve",
    "__version__",
]
