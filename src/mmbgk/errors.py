"""Error taxonomy shared across the solver modules.

Split by what went wrong, not where: configuration mistakes, invalid
physical states, quadrature/weight blow-ups, and failed time steps.
at_time adds the time and the phase of a run to any of them.
"""


class ConfigError(ValueError):
    """Inconsistent or out-of-range configuration values."""


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operator."""


class StateError(ValueError):
    """Physically inadmissible state (rho <= 0, theta <= 0, ...).

    StateError(what, cell) reads "{what} <= 0 in cell {cell}" and keeps
    both, so a caller that knows where the checked batch starts on the
    grid can name the grid cell.
    """

    def __init__(self, what: str, cell: int = None):
        super().__init__(what if cell is None else f"{what} <= 0 in cell {cell}")
        self.what, self.cell = what, cell


class NumericError(ArithmeticError):
    """Non-finite or divergent numerical result."""


class StepError(RuntimeError):
    """A time step failed, e.g. a CFL violation; message names the cell."""


def at_time(exc: Exception, t: float, phase: str) -> Exception:
    """exc as a new error of its own type whose message ends with the run's
    time and phase, " at t={t:g} ({phase})"; raise it from exc."""
    return type(exc)(f"{exc} at t={t:g} ({phase})")
