import numpy as np
import pytest

from oitsample import (
    GridMismatchError,
    PeriodicGrid,
    PoissonWorkspace,
    ScalarField,
    laplacian_spectral,
    solve_poisson,
)


@pytest.fixture(scope="module")
def ws64():
    return PoissonWorkspace(PeriodicGrid(64, 64))


def bandlimited_field(grid, rng, max_mode=8):
    """Random real field supported on low Fourier modes."""
    spec = np.zeros((grid.n_x, grid.n_y), dtype=complex)
    for _ in range(12):
        kx = int(rng.integers(-max_mode, max_mode + 1))
        ky = int(rng.integers(-max_mode, max_mode + 1))
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        spec[kx % grid.n_x, ky % grid.n_y] += amp
        spec[-kx % grid.n_x, -ky % grid.n_y] += np.conj(amp)
    values = np.fft.ifft2(spec).real
    return ScalarField(grid, values)


class TestSolvePoisson:
    def test_zero_source(self, ws64):
        f = solve_poisson(ws64, ScalarField.constant(ws64.grid, 0.0))
        assert np.all(f.values == 0.0)

    def test_sine_eigenfunction(self, ws64):
        g = ws64.grid
        s = ScalarField.from_function(g, lambda x, y: -np.sin(x))
        f = solve_poisson(ws64, s)
        X, _ = g.node_mesh()
        assert np.abs(f.values - np.sin(X)).max() <= 1e-12

    def test_product_eigenfunction(self, ws64):
        g = ws64.grid
        s = ScalarField.from_function(g, lambda x, y: -2.0 * np.sin(x) * np.sin(y))
        f = solve_poisson(ws64, s)
        X, Y = g.node_mesh()
        assert np.abs(f.values - np.sin(X) * np.sin(Y)).max() <= 1e-12

    def test_mean_is_removed(self, ws64, rng):
        for _ in range(5):
            s = ScalarField(ws64.grid, rng.standard_normal(ws64.grid.shape) + 3.0)
            f = solve_poisson(ws64, s)
            assert abs(f.values.mean()) <= 1e-12

    def test_linearity(self, ws64, rng):
        g = ws64.grid
        s1 = ScalarField(g, rng.standard_normal(g.shape))
        s2 = ScalarField(g, rng.standard_normal(g.shape))
        a, b = 2.7, -0.4
        combined = solve_poisson(ws64, ScalarField(g, a * s1.values + b * s2.values))
        separate = a * solve_poisson(ws64, s1).values + b * solve_poisson(ws64, s2).values
        assert np.abs(combined.values - separate).max() <= 1e-10

    def test_reflection_equivariance(self, ws64, rng):
        g = ws64.grid

        def reflect(v):
            return np.roll(v[::-1, ::-1], (1, 1), axis=(0, 1))

        s = rng.standard_normal(g.shape)
        f = solve_poisson(ws64, ScalarField(g, s)).values
        f_reflected = solve_poisson(ws64, ScalarField(g, reflect(s))).values
        assert np.abs(f_reflected - reflect(f)).max() <= 1e-12

    def test_residual_contract_random_bandlimited(self, ws64, rng):
        g = ws64.grid
        for _ in range(20):
            s = bandlimited_field(g, rng)
            f = solve_poisson(ws64, s)
            target = s.values - s.values.mean()
            back = laplacian_spectral(f).values
            rel = np.abs(back - target).max() / np.abs(target).max()
            assert rel <= 1e-10

    def test_grid_mismatch(self, ws64):
        with pytest.raises(GridMismatchError):
            solve_poisson(ws64, ScalarField.constant(PeriodicGrid(32, 32), 1.0))

    def test_solver_inverts_laplacian(self, ws64, rng):
        g = ws64.grid
        f0 = bandlimited_field(g, rng)
        zero_mean = ScalarField(g, f0.values - f0.values.mean())
        s = laplacian_spectral(zero_mean)
        f = solve_poisson(ws64, s)
        assert np.abs(f.values - zero_mean.values).max() <= 1e-10


# The wavenumber formulas as they were before the grid kept one table, kept as
# the reference that PoissonWorkspace, gradient_spectral and
# laplacian_spectral must reproduce bit for bit.


def reference_deriv_wavenumbers(grid):
    kx = np.fft.fftfreq(grid.n_x, d=grid.h_x) * 2.0 * np.pi
    ky = np.fft.fftfreq(grid.n_y, d=grid.h_y) * 2.0 * np.pi
    if grid.n_x % 2 == 0:
        kx = kx.copy()
        kx[grid.n_x // 2] = 0.0
    if grid.n_y % 2 == 0:
        ky = ky.copy()
        ky[grid.n_y // 2] = 0.0
    return kx, ky


def reference_k2(grid):
    kx = np.fft.fftfreq(grid.n_x, d=grid.h_x) * 2.0 * np.pi
    ky = np.fft.fftfreq(grid.n_y, d=grid.h_y) * 2.0 * np.pi
    return kx[:, None] ** 2 + ky[None, :] ** 2


def reference_inv_symbol(grid):
    k2 = reference_k2(grid)
    inv = np.zeros_like(k2)
    nz = k2 > 0.0
    inv[nz] = -1.0 / k2[nz]
    return inv


def reference_gradient(values, grid):
    kx, ky = reference_deriv_wavenumbers(grid)
    fh = np.fft.fft2(values)
    return (np.fft.ifft2(1j * kx[:, None] * fh).real,
            np.fft.ifft2(1j * ky[None, :] * fh).real)


def reference_laplacian(values, grid):
    return -np.fft.ifft2(reference_k2(grid) * np.fft.fft2(values)).real


def reference_solve(values, grid):
    return np.fft.ifft2(np.fft.fft2(values) * reference_inv_symbol(grid)).real


def reference_solve_gradient(values, grid):
    kx, ky = reference_deriv_wavenumbers(grid)
    f_hat = np.fft.fft2(values) * reference_inv_symbol(grid)
    return (np.fft.ifft2(1j * kx[:, None] * f_hat).real,
            np.fft.ifft2(1j * ky[None, :] * f_hat).real)


@pytest.mark.parametrize("shape", [(32, 48), (37, 20), (20, 37), (33, 33)])
class TestWavenumberTableMatchesReference:
    def test_workspace_tables(self, shape):
        g = PeriodicGrid(*shape)
        ws = PoissonWorkspace(g)
        kx, ky = reference_deriv_wavenumbers(g)
        assert np.array_equal(ws.inv_symbol, reference_inv_symbol(g))
        assert np.array_equal(ws.deriv_kx, kx)
        assert np.array_equal(ws.deriv_ky, ky)
        assert not (ws.inv_symbol.flags.writeable or ws.deriv_kx.flags.writeable
                    or ws.deriv_ky.flags.writeable)

    def test_operators(self, shape, rng):
        from oitsample import gradient_spectral
        from oitsample.poisson import _solve_gradient

        g = PeriodicGrid(*shape)
        ws = PoissonWorkspace(g)
        for values in (rng.standard_normal(g.shape), bandlimited_field(g, rng).values):
            f = ScalarField(g, values)
            gx, gy = reference_gradient(values, g)
            grad = gradient_spectral(f)
            assert np.array_equal(grad.u_x.values, gx)
            assert np.array_equal(grad.u_y.values, gy)
            assert np.array_equal(laplacian_spectral(f).values, reference_laplacian(values, g))
            assert np.array_equal(solve_poisson(ws, f).values, reference_solve(values, g))
            vx, vy = _solve_gradient(ws, values)
            sx, sy = reference_solve_gradient(values, g)
            assert np.array_equal(vx, sx)
            assert np.array_equal(vy, sy)
