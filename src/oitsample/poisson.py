"""Spectral Poisson solver on the periodic grid.

The discrete Laplacian is the exact Fourier symbol -|k|^2, which makes the
solver, the spectral gradient, and the spectral Laplacian mutually
consistent.  Sources are projected onto the solvable subspace by removing
their mean (the k = 0 mode); solutions are returned with zero mean.  Every
field here is real, so every transform is a real-input one (``rfft2`` and
``irfft2``) on the half spectrum of ``grid._wavenumbers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError
from .grid import PeriodicGrid, ScalarField, _wavenumbers


@dataclass(frozen=True)
class PoissonWorkspace:
    """Precomputed inverse symbol -1/|k|^2 (zero at k = 0) and derivative
    wavenumbers for one grid, on the half spectrum.

    The symbol table is read-only and may be shared across threads; the FFT
    calls allocate their own work arrays, so a workspace instance itself has
    no mutable state to protect.
    """

    grid: PeriodicGrid
    inv_symbol: np.ndarray = field(init=False, compare=False, repr=False)
    deriv_kx: np.ndarray = field(init=False, compare=False, repr=False)
    deriv_ky: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        k2, dkx, dky = _wavenumbers(self.grid)
        inv = np.zeros_like(k2)
        nz = k2 > 0.0
        inv[nz] = -1.0 / k2[nz]
        for name, table in (("inv_symbol", inv), ("deriv_kx", dkx), ("deriv_ky", dky)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)


def solve_poisson(ws: PoissonWorkspace, s: ScalarField) -> ScalarField:
    """Zero-mean f with (spectral) Laplacian f = s - mean(s)."""
    if s.grid != ws.grid:
        raise GridMismatchError("source grid does not match workspace")
    f_hat = np.fft.rfft2(s.values) * ws.inv_symbol  # symbol is 0 at k=0: mean removed
    return ScalarField(ws.grid, np.fft.irfft2(f_hat, s=ws.grid.shape))


def laplacian_spectral(f: ScalarField) -> ScalarField:
    """Exact-symbol Laplacian, the inverse of :func:`solve_poisson` on
    zero-mean fields."""
    k2 = _wavenumbers(f.grid)[0]
    return ScalarField(f.grid, -np.fft.irfft2(k2 * np.fft.rfft2(f.values), s=f.grid.shape))


def _solve_gradient(ws: PoissonWorkspace, s_values: np.ndarray):
    """Fused solve + gradient for the transport loop.

    Returns the gradient (v_x, v_y) of the Poisson solution as raw arrays,
    computed from a single forward transform of the source; the potential
    itself is never transformed back.  A non-finite source gives non-finite
    velocities, which the caller checks.
    """
    f_hat = np.fft.rfft2(s_values) * ws.inv_symbol
    v_x = np.fft.irfft2(1j * ws.deriv_kx[:, None] * f_hat, s=ws.grid.shape)
    v_y = np.fft.irfft2(1j * ws.deriv_ky[None, :] * f_hat, s=ws.grid.shape)
    return v_x, v_y
