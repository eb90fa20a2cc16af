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
    """A field, map or sample file is malformed; ``fileio._reading`` starts
    the message with the file's path.

    Raised for a bad magic, length or encoding, and for content that fails
    the grid, field or map checks (a non-finite value, a folded map).
    """


class OrientationLossError(RuntimeError):
    """The transport map folded: a cell-corner Jacobian determinant hit zero
    or below.

    Carries the step index, the least determinant, the step's CFL number and
    the time (step+1)/K.  Only a CFL number above 1 earns the advice of more
    steps; below it the fold comes from the target's contrast.
    """

    def __init__(self, step: int, min_det: float, cfl: float, time: float):
        self.step, self.min_det, self.cfl, self.time = step, min_det, cfl, time
        advice = ("try more time steps" if cfl > 1.0 else "the fold comes from the "
                  "target's contrast; more time steps are unlikely to help")
        super().__init__(
            f"orientation lost at step {step} (t = {time:.3f}, CFL {cfl:.3f}): "
            f"min Jacobian determinant {min_det:.3e} <= 0 ({advice})"
        )


class NumericalBlowupError(RuntimeError):
    """A field became non-finite or an inner solve diverged."""

    def __init__(self, step: int, what: str):
        self.step = step
        super().__init__(f"numerical blow-up at step {step}: {what}")
