"""Exception hierarchy shared by all omegagames modules."""


class OmegagamesError(Exception):
    """Base class for every error raised by this package."""


class FileAccessError(OmegagamesError):
    """A file could not be read (missing, unreadable, not UTF-8) or written."""

    def __init__(self, path, verb, cause):
        self.path = str(path)
        reason = getattr(cause, "strerror", None) or cause
        super().__init__(f"cannot {verb} {self.path}: {reason}")


class InvalidGame(OmegagamesError):
    """A game given to ``build_game`` violates a structural invariant.

    ``diagnostics`` holds the full list produced by ``validate_game``.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(v) for v in self.diagnostics)
        super().__init__(f"invalid game: {lines}")


class DeadEndCreated(OmegagamesError):
    """A subgame restriction left a state without successors."""


class RandomSupportBroken(OmegagamesError):
    """A subgame restriction cut part of a probabilistic state's support."""


class NotDeterministicGame(OmegagamesError):
    """A 2-player-only operation was applied to a game with probabilistic states."""


class TooLarge(OmegagamesError):
    """An input exceeds a bound: the enumeration oracle's state bound, a
    priority the fixpoint kernels cannot hold (above 2**31 - 1), or a parity
    objective needing more GOAL accSets than 2 per state plus 64."""


class UndefinedOnRegion(OmegagamesError):
    """A strategy pullback found a required state with no choice."""


class IncompleteAutomaton(OmegagamesError):
    """A deterministic automaton misses a transition and completion is disabled."""


class SpecUnsatisfiable(OmegagamesError):
    """No play of the synthesis game satisfies the specification, even cooperatively."""


class EnvDeadlocked(OmegagamesError):
    """Removing safety edges emptied the moves of a reachable environment state."""


class NotEnvEdge(OmegagamesError):
    """A fairness/safety edge set referenced an edge that is not an environment edge."""


class NoFairnessAssumptionExists(OmegagamesError):
    """Even making every environment edge fair does not suffice for realizability."""


class StrategyIncomplete(OmegagamesError):
    """Transducer extraction reached a choice state the strategy does not cover."""


class StructureSyntaxError(OmegagamesError):
    """Malformed structure file (XML or PGSolver text).

    ``line``/``column`` are set when the underlying parser reports a position.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", column {column}" if column is not None else "") + f": {message}"
        super().__init__(message)


class SchemaError(OmegagamesError):
    """A file breaks a rule of its format: a well-formed structure file
    against the grammar, or a game the format cannot hold on export."""


class UnknownProp(OmegagamesError):
    """A transition label mentions a proposition missing from the alphabet."""


class DuplicateProp(OmegagamesError):
    """A transition label mentions the same proposition twice."""


class LabelSyntaxError(OmegagamesError):
    """A transition label does not match the label grammar."""


class KernelUnavailable(OmegagamesError):
    """A fixpoint kernel was requested by an unknown name or is not built."""


class InvalidSpec(OmegagamesError):
    """A benchmark specification violates its own constraints."""


class ConsoleParseError(OmegagamesError):
    """A console statement does not match the statement grammar."""


class UnboundVariable(OmegagamesError):
    """A console statement referenced a variable with no binding."""


class TypeMismatch(OmegagamesError):
    """An operation is not available on the object it was applied to: a
    console action on the wrong kind of value, or a parity-only export of
    a Rabin/Streett game."""
