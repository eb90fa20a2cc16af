"""Fourier calculus on the periodic grid: the one module in this package
that transforms.

The discrete Laplacian is the exact Fourier symbol -|k|^2, which makes the
solver, the spectral gradient, and the spectral Laplacian mutually
consistent.  Sources are projected onto the solvable subspace by removing
their mean (the k = 0 mode); solutions are returned with zero mean.  Every
field here is real, so every transform is a real-input one (``rfft2`` and
``irfft2``) on the half spectrum that :class:`PoissonWorkspace` tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError
from .grid import TWO_PI, PeriodicGrid, ScalarField, VectorField


@dataclass(frozen=True)
class PoissonWorkspace:
    """The grid's one wavenumber table, on the half spectrum of a real-input
    transform (``rfft2``).

    ``k2`` is |k|^2, the (negated) Laplacian symbol, of shape
    ``(n_x, n_y // 2 + 1)``: ``kx`` runs over all ``n_x`` modes and ``ky``
    over the ``n_y // 2 + 1`` non-negative ones.  ``inv_symbol`` is
    -1/|k|^2, zero at k = 0.  The 1-D derivative tables ``deriv_kx`` and
    ``deriv_ky`` have the unpaired Nyquist mode of an even axis zeroed,
    which keeps d/dx of a real field real.

    The tables are read-only and may be shared across threads; the FFT
    calls allocate their own work arrays, so a workspace instance itself has
    no mutable state to protect.
    """

    grid: PeriodicGrid
    k2: np.ndarray = field(init=False, compare=False, repr=False)
    inv_symbol: np.ndarray = field(init=False, compare=False, repr=False)
    deriv_kx: np.ndarray = field(init=False, compare=False, repr=False)
    deriv_ky: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        g = self.grid
        kx = np.fft.fftfreq(g.n_x, d=g.h_x) * TWO_PI
        ky = np.fft.rfftfreq(g.n_y, d=g.h_y) * TWO_PI
        k2 = kx[:, None] ** 2 + ky[None, :] ** 2
        if g.n_x % 2 == 0:
            kx[g.n_x // 2] = 0.0
        if g.n_y % 2 == 0:
            ky[g.n_y // 2] = 0.0
        inv = np.zeros_like(k2)
        nz = k2 > 0.0
        inv[nz] = -1.0 / k2[nz]
        for name, table in (("k2", k2), ("inv_symbol", inv), ("deriv_kx", kx),
                            ("deriv_ky", ky)):
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
    k2 = PoissonWorkspace(f.grid).k2
    return ScalarField(f.grid, -np.fft.irfft2(k2 * np.fft.rfft2(f.values), s=f.grid.shape))


def gradient_spectral(f: ScalarField) -> VectorField:
    """Fourier-space gradient; exact for bandlimited fields."""
    ws = PoissonWorkspace(f.grid)
    return VectorField.from_arrays(f.grid, *_gradient(ws, np.fft.rfft2(f.values)))


def _gradient(ws: PoissonWorkspace, f_hat: np.ndarray):
    """Gradient (v_x, v_y), as raw arrays, of the real field whose half
    spectrum is ``f_hat``."""
    v_x = np.fft.irfft2(1j * ws.deriv_kx[:, None] * f_hat, s=ws.grid.shape)
    v_y = np.fft.irfft2(1j * ws.deriv_ky[None, :] * f_hat, s=ws.grid.shape)
    return v_x, v_y


def _solve_gradient(ws: PoissonWorkspace, s_values: np.ndarray):
    """Fused solve + gradient for the transport loop.

    Returns the gradient (v_x, v_y) of the Poisson solution as raw arrays,
    computed from a single forward transform of the source; the potential
    itself is never transformed back.  A non-finite source gives non-finite
    velocities, which the caller checks.
    """
    f_hat = np.fft.rfft2(s_values)
    f_hat *= ws.inv_symbol
    return _gradient(ws, f_hat)
