"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates an operation's precondition."""


class GridMismatchError(InvalidInputError):
    """Two fields or maps that must share a grid do not."""


class PositivityError(InvalidInputError):
    """A density (or density candidate) is not strictly positive."""


class DegenerateInputError(InvalidInputError):
    """Input is structurally unusable (all-zero field, constant field, ...)."""


class FileFormatError(InvalidInputError):
    """A field, map or sample file is malformed; the message names the file.

    Raised for a bad magic, length or encoding, and for content that fails
    the grid, field or map checks (a non-finite value, a folded map).
    """


class OrientationLossError(RuntimeError):
    """The transport map folded: Jacobian determinant hit zero or below.

    Carries the time-step index at which orientation was lost.
    """

    def __init__(self, step: int, min_det: float):
        self.step = step
        self.min_det = min_det
        super().__init__(
            f"orientation lost at step {step}: min Jacobian determinant "
            f"{min_det:.3e} <= 0 (try more time steps)"
        )


class NumericalBlowupError(RuntimeError):
    """A field became non-finite or an inner solve diverged."""

    def __init__(self, step: int, what: str):
        self.step = step
        super().__init__(f"numerical blow-up at step {step}: {what}")
