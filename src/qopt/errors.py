"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument is malformed: wrong dimension, non-finite, or out of range."""


class PreconditionError(ValueError):
    """A documented call-site precondition does not hold (e.g. infeasible point)."""


class ConfigError(ValueError):
    """An experiment configuration is invalid; ``field`` names the offender."""

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field

    def __reduce__(self):
        message = self.args[0][len(f"config field '{self.field}': "):]
        return type(self), (self.field, message), self.__dict__


class NumericalFailureError(RuntimeError):
    """Raised for a non-finite oracle value, PGD or prox step, point to project,
    LMO direction or gap, and for a prox solve or line search past its
    iteration or halving budget.  A failure inside a run carries the rows
    recorded so far as ``exc.partial_trace``, which ``run_experiment`` flushes.
    """

    def __init__(self, message, last_iterate=None, diagnostics=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.diagnostics = diagnostics or {}
