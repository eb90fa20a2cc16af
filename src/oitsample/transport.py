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

Apart from the Poisson solve and the inverse map's four Jacobian entries,
a step's work at a node reads only that node's values and the padded fields
it gathers from; the forward map's Jacobian check reads the new map,
padded.  So the loop runs it over row blocks of about ``_POINT_BLOCK``
nodes: a step holds a few grid fields plus one block's temporaries, and
each field it reads across the seam is padded once per step into one of
six buffers (see ``_integrate`` for which phase owns which).  The inverse
map lives in two of those buffers for the whole build and is updated
through their interiors, so only its halo is refreshed each step.  The
block size changes no byte of the map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError,
    InvalidInputError,
    NumericalBlowupError,
    OrientationLossError,
)
from .geodesic import (
    Density,
    GeodesicPath,
    geodesic_path,
    log_density_rate,
    uniform_density,
)
from .grid import (
    _POINT_BLOCK,
    DiffeoMap,
    PeriodicGrid,
    VectorField,
    _central_diff,
    _corner_det,
    _displaced_stencil,
    _jacobian_det_arrays,
    _pad,
    _refresh_halo,
    _Stencil,
    wrap_angle,
)
from .poisson import PoissonWorkspace, _solve_gradient

_NEWTON_ITERS = 3


@dataclass(frozen=True)
class TransportConfig:
    """Build parameters: K time steps of size 1/K on a fixed grid.

    ``residual_tol`` is the pushforward-residual level above which the
    result's ``residual_above_tol`` is set, which ``oitsample build``
    words on stderr.  Every build
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
    removed by each solve, ``min_jacobian`` the least cell-corner
    determinant of the forward map after each step (see ``grid._corner_det``).
    All three have length K.
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
    st = _displaced_stencil(grid, mapping.disp.u_x.values, mapping.disp.u_y.values)
    mu_at = st.gather(_pad(target.field.values)).reshape(grid.shape)
    det = _jacobian_det_arrays(grid, *mapping._padded)
    u0 = 1.0 / (grid.n_x * grid.n_y * grid.cell_volume)  # the uniform density
    return float(np.mean(np.abs(det * mu_at - u0)) / u0)


def _integrate(path: GeodesicPath, grid: PeriodicGrid, K: int):
    """The K-step loop: the four displacement arrays and the three per-step
    diagnostics, ``(fwd_x, fwd_y, inv_x, inv_y, cfl, poisson_mean, min_jac)``.

    The source gather, the inverse Euler update with the forward predictor,
    the Newton updates and the Jacobian check run over row blocks of about
    ``_POINT_BLOCK`` nodes, so their temporaries are one block's, not the
    grid's; ``min_jac`` is the least of the blocks' minima.  The Poisson
    solve, the CFL number and the inverse map's four Jacobian entries stay
    whole-grid.  Per node the arithmetic is the unblocked loop's, so the
    block size changes no byte of the result.

    Every field read across the seam is padded into one of six ``_pad``
    buffers, allocated once per call.  Buffers 4 and 5 hold the inverse
    map for the whole build: ``inv_x`` and ``inv_y`` are their interior
    views, the Euler update writes into them in place, and after the
    update pass the halos alone are refreshed for the Newton gathers.
    Each other buffer belongs to one phase at a time:

    - 0, 1: the forward map, padded by the Jacobian check (the identity's
      pads before the first step) and read by the next step's predictor;
    - 2: the rate, for the source gather;
    - 3: ``source``, the buffer's contiguous prefix (a strided view could
      reorder the sum of ``source.mean()``), from the gather through the solve;
    - 2, 3: the velocities, for the inverse update;
    - 0-3: the new inverse map's four Jacobian entries, for the Newton
      updates.

    The predictor reads only the old forward map's pads and the velocities,
    so it runs in the inverse update's block pass, and ``fwd`` holds the
    predicted *positions* (not displacements) until the Newton pass starts
    each block from them and writes the block's new displacement back.

    Across a step only the forward map, the pads and the velocities (until
    the next solve replaces them) stay alive.  The last forward block's
    scratch (its stencil, Newton iterate, residuals, Jacobian entries and
    ``det``) is released after that block, so none of it is alive through
    the Jacobian check, the next rate, the source gather or the solve.  Each
    release lets glibc trim the heap and refault it later, so it is made
    once per step: per block it slowed the loop by about 20%, and releasing
    the velocities with the scratch raised a 256^2, 100-step build's minor
    faults from about 56k to 210k.  Nothing of a step is alive while the
    caller checks and scores the map; the returned ``inv_x`` and ``inv_y``
    are the interior views of buffers 4 and 5, so the caller's copy into
    the map is the inverse map's only copy.
    """
    eps = 1.0 / K
    ws = PoissonWorkspace(grid)
    xs = grid.xs[:, None]  # node coordinates, broadcast over the grid: the
    ys = grid.ys[None, :]  # same sums as the node mesh, bit for bit
    shape = grid.shape
    n_y = grid.n_y
    rows = max(1, _POINT_BLOCK // n_y)
    blocks = [slice(r, min(r + rows, grid.n_x)) for r in range(0, grid.n_x, rows)]

    fwd_x = np.zeros(shape)
    fwd_y = np.zeros(shape)
    pads = [_pad(fwd_x) for _ in range(6)]  # the identity's pads
    pf_x, pf_y, pi_x, pi_y = pads[0], pads[1], pads[4], pads[5]
    inv_x, inv_y = pi_x[1:-1, 1:-1], pi_y[1:-1, 1:-1]
    source = pads[3].reshape(-1)[:fwd_x.size].reshape(shape)

    cfl = np.zeros(K)
    poisson_mean = np.zeros(K)
    min_jac = np.zeros(K)

    for k in range(K):
        rate = _pad(log_density_rate(path, k / K).values, out=pads[2])
        for b in blocks:
            st = _displaced_stencil(grid, fwd_x, fwd_y, b)
            source[b] = st.gather(rate).reshape(-1, n_y)
        poisson_mean[k] = source.mean()
        v_x, v_y = _solve_gradient(ws, source)
        if not (np.all(np.isfinite(v_x)) and np.all(np.isfinite(v_y))):
            raise NumericalBlowupError(k, "velocity field is not finite")
        cfl[k] = max(
            eps * np.abs(v_x).max() / grid.h_x,
            eps * np.abs(v_y).max() / grid.h_y,
        )

        pv_x = _pad(v_x, out=pads[2])
        pv_y = _pad(v_y, out=pads[3])
        for b in blocks:
            # inverse map: pointwise Euler step of the flow ODE, in place; a
            # block reads only its own rows and the padded velocities
            st = _displaced_stencil(grid, inv_x, inv_y, b)
            inv_x[b] += eps * st.gather(pv_x).reshape(-1, n_y)
            inv_y[b] += eps * st.gather(pv_y).reshape(-1, n_y)
            # forward map: the Euler-composed predictor, read from the old
            # map's pads only, so its positions can take the block's rows
            y_x = (xs[b] - eps * v_x[b]).reshape(-1)
            y_y = (ys - eps * v_y[b]).reshape(-1)
            st = _Stencil(grid, y_x, y_y)
            y_x += st.gather(pf_x)
            y_y += st.gather(pf_y)
            fwd_x[b] = y_x.reshape(-1, n_y)
            fwd_y[b] = y_y.reshape(-1, n_y)

        _refresh_halo(pi_x)
        _refresh_halo(pi_y)
        g_xx = _pad(_central_diff(grid, pi_x, 0), out=pads[0])
        g_xy = _pad(_central_diff(grid, pi_x, 1), out=pads[1])
        g_yx = _pad(_central_diff(grid, pi_y, 0), out=pads[2])
        g_yy = _pad(_central_diff(grid, pi_y, 1), out=pads[3])
        for b in blocks:
            xb = xs[b]
            y_x = fwd_x[b].reshape(-1)  # the predicted positions ...
            y_y = fwd_y[b].reshape(-1)
            # ... Newton-projected onto the inverse: solve phi^-1(y) = x
            for _ in range(_NEWTON_ITERS):
                st = _Stencil(grid, y_x, y_y)
                res_x = wrap_angle((y_x + st.gather(pi_x)).reshape(-1, n_y) - xb).reshape(-1)
                res_y = wrap_angle((y_y + st.gather(pi_y)).reshape(-1, n_y) - ys).reshape(-1)
                a11 = 1.0 + st.gather(g_xx)
                a12 = st.gather(g_xy)
                a21 = st.gather(g_yx)
                a22 = 1.0 + st.gather(g_yy)
                det = a11 * a22 - a12 * a21
                if not (np.all(np.isfinite(det)) and det.all()):
                    raise NumericalBlowupError(
                        k, "forward-map Newton Jacobian is singular or not finite")
                y_x = y_x - (a22 * res_x - a12 * res_y) / det
                y_y = y_y - (-a21 * res_x + a11 * res_y) / det
            if not (np.all(np.isfinite(y_x)) and np.all(np.isfinite(y_y))):
                raise NumericalBlowupError(k, "forward-map Newton update is not finite")
            fwd_x[b] = y_x.reshape(-1, n_y) - xb
            fwd_y[b] = y_y.reshape(-1, n_y) - ys
        # once per step, not per block: the last block's scratch goes before
        # the Jacobian check and the next step
        del st, y_x, y_y, res_x, res_y, a11, a12, a21, a22, det

        # the new forward map's pads serve the check and the next predictor
        pf_x = _pad(fwd_x, out=pads[0])
        pf_y = _pad(fwd_y, out=pads[1])
        min_jac[k] = min(_corner_det(grid, pf_x, pf_y, b).min() for b in blocks)
        if min_jac[k] <= 0.0:
            raise OrientationLossError(k, float(min_jac[k]), float(cfl[k]), (k + 1) / K)

    return fwd_x, fwd_y, inv_x, inv_y, cfl, poisson_mean, min_jac


def build_transport_map(target: Density, cfg: TransportConfig) -> TransportResult:
    """Run the K-step loop and return the transport map with diagnostics.

    Raises OrientationLossError if the forward map folds at any step (a
    cell-corner Jacobian determinant at zero or below; more steps cure it
    only when that step's CFL number exceeds 1, and the error says so), and
    NumericalBlowupError if any field stops being finite or a Newton
    Jacobian is singular.
    """
    if target.grid != cfg.grid:
        raise GridMismatchError("target density is not on the configured grid")
    grid = cfg.grid
    path = geodesic_path(uniform_density(grid), target)
    fwd_x, fwd_y, inv_x, inv_y, cfl, poisson_mean, min_jac = _integrate(path, grid, cfg.steps)

    mapping = DiffeoMap(
        VectorField.from_arrays(grid, fwd_x, fwd_y),
        VectorField.from_arrays(grid, inv_x, inv_y),
    )
    residual = pushforward_residual(mapping, target)
    return TransportResult(
        map=mapping,
        angle=path.angle,
        residual=residual,
        cfl=cfl,
        poisson_mean=poisson_mean,
        min_jacobian=min_jac,
        residual_above_tol=residual > cfg.residual_tol,
    )
