"""Exception types shared across the engine, the default closure budget, and
the JSON file reader and list check that raise InputFormatError; this module
imports no layer."""

import json


class EngineError(Exception):
    """Base class for all engine errors."""


class RelationSpecError(EngineError):
    """Malformed relation input: bad lambda, bad grid, inconsistent spaces."""


class UnknownStateError(EngineError):
    """A state or space id is not declared."""


class CompositionMismatchError(EngineError):
    """A declared fact relates states with different total element content."""


class UnclosedRelationError(EngineError):
    """Query against a relation that has not been closed."""


# the fact budget of close() when none is given, and of a spec's options
DEFAULT_BUDGET = 10 ** 6


class ClosureBudgetError(EngineError):
    """Closure exceeded the configured fact budget (combinatorial blow-up).

    rule names the closure rule that produced the fact past the budget
    (input, reflexive, split, transitivity, scaling, consistency or
    cancellation) and parts gives the part counts of its two sides.
    """

    def __init__(self, budget, facts, rule=None, parts=None):
        where = ""
        if rule is not None:
            where = " at a %s fact with %d -> %d parts" % (rule, parts[0], parts[1])
        super().__init__(
            "closure exceeded the fact budget of %d (reached %d facts)%s; "
            "shrink the lambda grid or max_parts" % (budget, facts, where)
        )
        self.budget = budget
        self.facts = facts
        self.rule = rule
        self.parts = parts


class NoReferencePairError(EngineError):
    """No strictly ordered reference pair exists for the entropy construction."""


class ComparabilityError(EngineError):
    """A pair of states that must be comparable is not."""

    def __init__(self, witness):
        super().__init__("incomparable pair encountered: %s vs %s" % witness)
        self.witness = witness


class DegenerateTableError(EngineError):
    """An entropy table is constant; an affine fit is meaningless."""


class CalibratorError(EngineError):
    """No valid calibrator quadruple exists, or a calibrator is degenerate."""


class DomainError(EngineError):
    """A state lies outside (or on the boundary of) a model domain."""


class IntegrationError(EngineError):
    """Adiabat integration failed: path left the domain or step underflow."""


class TemperatureSignError(EngineError):
    """Computed temperature is not positive (bad model or oracle)."""


class SplitBoundaryError(EngineError):
    """The entropy-maximizing energy partition sits on the admissible boundary."""


class InfeasibleConstantsError(EngineError):
    """The additive-constant difference constraints admit no solution."""

    def __init__(self, cycle, total):
        super().__init__(
            "infeasible constraint system: cycle %s has total bound %s < 0"
            % (" -> ".join(str(n) for n in cycle), total)
        )
        self.cycle = cycle
        self.total = total


class InputFormatError(EngineError):
    """An instance file does not parse or does not match its schema."""


def read_json(path):
    """Parse a JSON file; an unreadable or malformed file is an InputFormatError,
    and so is one nested too deeply for the parser or holding an integer
    too long to convert."""
    try:
        # JSON is UTF-8 (RFC 8259), whatever the locale's encoding
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            "%s: parse error at line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError("cannot read %s: %s" % (path, exc)) from exc
    except RecursionError as exc:
        raise InputFormatError("%s: nested too deeply to parse" % path) from exc
    except ValueError as exc:
        # int() refuses a literal longer than sys.get_int_max_str_digits()
        raise InputFormatError("%s: %s" % (path, exc)) from exc


def expect_list(value, what):
    """value itself when it is a JSON list; anything else, a string included,
    is an InputFormatError naming the field `what`.  Iterating a string would
    read it one character per item."""
    if not isinstance(value, list):
        raise InputFormatError("%s must be a list, got %r" % (what, value))
    return value
