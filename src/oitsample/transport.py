"""Time-stepping construction of the density-matching diffeomorphism.

The loop integrates the lifting system of the Fisher-Rao geodesic from the
uniform density to the target: at each step the log-density rate composed
with the current map is the source of a Poisson solve, the solution's
gradient is the step velocity, and the map pair advances by one Euler step
of size 1/K.

The inverse map is the mathematically primary object here: it obeys the
flow ODE  d/dt phi^-1 = v o phi^-1,  so its Euler update is pointwise and
accumulates no re-gridding error.  The forward map (the one sampling uses)
is kept consistent with it by a Newton solve each step, seeded by the
Euler-composed predictor ``phi_k o (id - eps*v_k)``.  The solve runs a fixed
3 Newton updates with no stopping test; the residual is still far above
rounding level after the third.  Composing the forward displacement alone
re-interpolates the accumulated field every step, which acts as numerical
diffusion and visibly biases the pushforward at sampling scale; the Newton
correction removes that bias while leaving the printed update as the
predictor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError,
    InvalidInputError,
    NumericalBlowupError,
    OrientationLossError,
)
from .geodesic import Density, geodesic_path, log_density_rate, uniform_density
from .grid import (
    DiffeoMap,
    PeriodicGrid,
    VectorField,
    _central_diff,
    _displaced_stencil,
    _jacobian_det_arrays,
    _Stencil,
    wrap_angle,
)
from .poisson import PoissonWorkspace, _solve_gradient

_NEWTON_ITERS = 3


@dataclass(frozen=True)
class TransportConfig:
    """Build parameters: K time steps of size 1/K on a fixed grid.

    ``residual_tol`` is the pushforward-residual level above which the
    result is flagged (with a warning, never silently).  Every build
    records the scalar per-step diagnostics of ``TransportResult``.
    """

    steps: int
    grid: PeriodicGrid
    residual_tol: float = 0.05

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise InvalidInputError(f"step count must be >= 1, got {self.steps}")


@dataclass(frozen=True)
class TransportResult:
    """Built map plus per-step diagnostics.

    ``cfl`` holds max |eps*v| / h per step, ``poisson_mean`` the source mean
    removed by each solve, ``min_jacobian`` the minimum forward Jacobian
    determinant after each step.  All three have length K.
    """

    map: DiffeoMap
    angle: float
    residual: float
    cfl: np.ndarray
    poisson_mean: np.ndarray
    min_jacobian: np.ndarray
    residual_above_tol: bool


def pushforward_residual(mapping: DiffeoMap, target: Density) -> float:
    """Mean relative error of det(Dphi) * mu(phi(x)) against the uniform density.

    This change-of-variables identity is the nodal certificate that points
    drawn uniformly and pushed through the map follow the target.
    """
    if mapping.grid != target.grid:
        raise GridMismatchError("map and target grids differ")
    grid = mapping.grid
    dx = mapping.disp.u_x.values
    dy = mapping.disp.u_y.values
    st = _displaced_stencil(grid, dx, dy)
    mu_at = st.gather(target.field.values).reshape(grid.shape)
    det = _jacobian_det_arrays(grid, dx, dy)
    u0 = 1.0 / (grid.n_x * grid.n_y * grid.cell_volume)  # the uniform density
    return float(np.mean(np.abs(det * mu_at - u0)) / u0)


def build_transport_map(target: Density, cfg: TransportConfig) -> TransportResult:
    """Run the K-step loop and return the transport map with diagnostics.

    Raises OrientationLossError if the forward Jacobian determinant drops
    to zero or below at any step (the usual cure is more steps), and
    NumericalBlowupError if any field stops being finite.
    """
    if target.grid != cfg.grid:
        raise GridMismatchError("target density is not on the configured grid")
    grid = cfg.grid
    K = cfg.steps
    eps = 1.0 / K
    path = geodesic_path(uniform_density(grid), target)
    ws = PoissonWorkspace(grid)
    X, Y = grid.node_mesh()
    flat_x = X.reshape(-1)
    flat_y = Y.reshape(-1)
    shape = grid.shape

    fwd_x = np.zeros(shape)
    fwd_y = np.zeros(shape)
    inv_x = np.zeros(shape)
    inv_y = np.zeros(shape)

    cfl = np.zeros(K)
    poisson_mean = np.zeros(K)
    min_jac = np.zeros(K)

    for k in range(K):
        rate = log_density_rate(path, k / K)
        st_fwd = _displaced_stencil(grid, fwd_x, fwd_y)
        source = st_fwd.gather(rate.values).reshape(shape)
        poisson_mean[k] = source.mean()
        v_x, v_y = _solve_gradient(ws, source)
        if not (np.all(np.isfinite(v_x)) and np.all(np.isfinite(v_y))):
            raise NumericalBlowupError(k, "velocity field is not finite")
        cfl[k] = max(
            eps * np.abs(v_x).max() / grid.h_x,
            eps * np.abs(v_y).max() / grid.h_y,
        )

        # inverse map: pointwise Euler step of the flow ODE
        st_inv = _displaced_stencil(grid, inv_x, inv_y)
        inv_x = inv_x + eps * st_inv.gather(v_x).reshape(shape)
        inv_y = inv_y + eps * st_inv.gather(v_y).reshape(shape)

        # forward map: Euler-composed predictor ...
        y_x = (X - eps * v_x).reshape(-1)
        y_y = (Y - eps * v_y).reshape(-1)
        st_pre = _Stencil(grid, y_x, y_y)
        y_x += st_pre.gather(fwd_x)
        y_y += st_pre.gather(fwd_y)

        # ... then Newton-projected onto the inverse: solve phi^-1(y) = x
        g_xx = _central_diff(inv_x, 0, grid.h_x)
        g_xy = _central_diff(inv_x, 1, grid.h_y)
        g_yx = _central_diff(inv_y, 0, grid.h_x)
        g_yy = _central_diff(inv_y, 1, grid.h_y)
        for _ in range(_NEWTON_ITERS):
            st_n = _Stencil(grid, y_x, y_y)
            res_x = wrap_angle(y_x + st_n.gather(inv_x) - flat_x)
            res_y = wrap_angle(y_y + st_n.gather(inv_y) - flat_y)
            a11 = 1.0 + st_n.gather(g_xx)
            a12 = st_n.gather(g_xy)
            a21 = st_n.gather(g_yx)
            a22 = 1.0 + st_n.gather(g_yy)
            det = a11 * a22 - a12 * a21
            y_x = y_x - (a22 * res_x - a12 * res_y) / det
            y_y = y_y - (-a21 * res_x + a11 * res_y) / det
        if not (np.all(np.isfinite(y_x)) and np.all(np.isfinite(y_y))):
            raise NumericalBlowupError(k, "forward-map Newton update is not finite")
        fwd_x = (y_x - flat_x).reshape(shape)
        fwd_y = (y_y - flat_y).reshape(shape)

        det_fwd = _jacobian_det_arrays(grid, fwd_x, fwd_y)
        min_jac[k] = det_fwd.min()
        if min_jac[k] <= 0.0:
            raise OrientationLossError(k, float(min_jac[k]))

    mapping = DiffeoMap(
        grid,
        VectorField.from_arrays(grid, fwd_x, fwd_y),
        VectorField.from_arrays(grid, inv_x, inv_y),
    )
    residual = pushforward_residual(mapping, target)
    above = residual > cfg.residual_tol
    if above:
        warnings.warn(
            f"pushforward residual {residual:.3e} above tolerance {cfg.residual_tol:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return TransportResult(
        map=mapping,
        angle=path.angle,
        residual=residual,
        cfl=cfl,
        poisson_mean=poisson_mean,
        min_jacobian=min_jac,
        residual_above_tol=above,
    )
