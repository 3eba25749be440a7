"""Exception types shared by all modules, and the one resource guard.

Each error carries the process exit code the CLI maps it to, so the
mapping lives in one place and stays stable; so does the guard on work.
"""

from decimal import ROUND_CEILING, Context

_WORK_GUARD = 10**7
# three significant digits rounded up, so a refused amount never prints as the guard
_ROUND_UP = Context(prec=3, rounding=ROUND_CEILING)


class LacunaryError(Exception):
    exit_code = 1


class PolyParseError(LacunaryError):
    """Malformed polynomial input; `lineno` is 1-based when known."""

    exit_code = 2

    def __init__(self, message, lineno=None):
        super().__init__(message)
        self.lineno = lineno


class ResourceLimitError(LacunaryError):
    """Predicted workload exceeds a guard; nothing was computed."""

    exit_code = 3


class InvalidParametersError(LacunaryError):
    """Arguments violate an operation's preconditions."""

    exit_code = 4


def refuse_above(predicted, what: str) -> None:
    """Raise ResourceLimitError when predicted work exceeds the guard; nothing is computed."""
    if predicted > _WORK_GUARD:
        amount = _ROUND_UP.create_decimal(predicted)  # an exact subset count can overflow a float
        raise ResourceLimitError(f"{amount:.3g} predicted {what} exceed guard {_WORK_GUARD:g}")
