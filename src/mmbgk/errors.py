"""Error taxonomy shared across the solver modules.

Split by what went wrong, not where: configuration mistakes, invalid
physical states, quadrature/weight blow-ups, and failed time steps.
at_time adds the time and the phase of a run to any of them.
"""


class ConfigError(ValueError):
    """Inconsistent or out-of-range configuration values."""


class _CellError(ValueError):
    """An error that can name a cell of the checked batch.

    _CellError(what, cell, detail) reads "{what} in cell {cell}: {detail}"
    (no cell: what alone; no detail: no colon) and keeps all three, so a
    caller that knows where the checked batch starts on the grid can raise
    it again naming the grid cell (shifted).
    """

    def __init__(self, what: str, cell: int = None, detail: str = ""):
        msg = what if cell is None else f"{what} in cell {cell}"
        super().__init__(f"{msg}: {detail}" if detail else msg)
        self.what, self.cell, self.detail = what, cell, detail

    def shifted(self, first: int):
        """This error as a new one of its type, naming cell first + cell."""
        return type(self)(self.what, first + self.cell, self.detail)


class DomainError(_CellError):
    """Arguments outside the mathematical domain of an operator."""


class StateError(_CellError):
    """Physically inadmissible state (non-finite, rho <= 0, theta <= 0, ...);
    what names the failed test ("rho or theta <= 0", "non-finite state")."""


class NumericError(ArithmeticError):
    """Non-finite or divergent numerical result."""


class StepError(RuntimeError):
    """A time step failed, e.g. a CFL violation; message names the cell."""


def at_time(exc: Exception, t: float, phase: str) -> Exception:
    """exc as a new error of its own type whose message ends with the run's
    time and phase, " at t={t:g} ({phase})"; raise it from exc."""
    return type(exc)(f"{exc} at t={t:g} ({phase})")
