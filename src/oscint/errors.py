"""The error family: what oscint raises when a call could not be done.

Every error that oscint raises on purpose is an :class:`OscintError`, and
keeps a builtin base as well (``ValueError`` or ``RuntimeError``), so an
``except ValueError`` written for it still catches it. Any other exception
that leaves oscint is a defect. This module imports nothing from oscint,
so that every other module can raise these types.
"""

__all__ = ["OscintError", "InvalidInputError", "AccuracyNotReachedError"]


class OscintError(Exception):
    """Base of every error oscint raises on purpose: the call could not be done.

    Every subclass survives a pickle round trip with its type, message and
    attributes: it is rebuilt from ``args`` and ``__dict__`` without calling
    its ``__init__``, whose arguments may differ from ``args``.
    """

    def __reduce__(self):
        return Exception.__new__, (type(self), *self.args), self.__dict__


class InvalidInputError(OscintError, ValueError):
    """An argument is outside what the call accepts; nothing is computed."""


class AccuracyNotReachedError(OscintError, RuntimeError):
    """Quadrature refinement budget exhausted; carries the best estimate."""

    def __init__(self, estimate: complex, error_estimate: float):
        super().__init__(
            f"panel budget exceeded; best estimate {estimate} "
            f"(error ~ {error_estimate:.3e})"
        )
        self.estimate = estimate
        self.error_estimate = error_estimate
