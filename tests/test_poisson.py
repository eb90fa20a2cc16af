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


# Two sets of reference formulas.  The half-spectrum ones (``rfftfreq``,
# ``rfft2``/``irfft2``) are what PoissonWorkspace, gradient_spectral,
# laplacian_spectral and the transport loop's solve must reproduce bit for
# bit.  The full-spectrum ones (``fftfreq``, complex ``fft2``/``ifft2``, real
# part) compute the same operators over every mode; the package's operators
# must agree with them to rounding.


def _k(grid, half):
    """Angular wavenumbers of both axes; the second on the half spectrum
    when ``half``."""
    kx = np.fft.fftfreq(grid.n_x, d=grid.h_x) * 2.0 * np.pi
    freq = np.fft.rfftfreq if half else np.fft.fftfreq
    ky = freq(grid.n_y, d=grid.h_y) * 2.0 * np.pi
    return kx, ky


def reference_deriv_wavenumbers(grid, half=True):
    kx, ky = _k(grid, half)
    if grid.n_x % 2 == 0:
        kx[grid.n_x // 2] = 0.0
    if grid.n_y % 2 == 0:
        ky[grid.n_y // 2] = 0.0
    return kx, ky


def reference_k2(grid, half=True):
    kx, ky = _k(grid, half)
    return kx[:, None] ** 2 + ky[None, :] ** 2


def reference_inv_symbol(grid, half=True):
    k2 = reference_k2(grid, half)
    inv = np.zeros_like(k2)
    nz = k2 > 0.0
    inv[nz] = -1.0 / k2[nz]
    return inv


def _transforms(grid, half):
    """(forward, inverse) transform pair of a real field."""
    if half:
        return np.fft.rfft2, lambda spec: np.fft.irfft2(spec, s=grid.shape)
    return np.fft.fft2, lambda spec: np.fft.ifft2(spec).real


def reference_gradient(values, grid, half=True):
    fwd, inv = _transforms(grid, half)
    kx, ky = reference_deriv_wavenumbers(grid, half)
    fh = fwd(values)
    return inv(1j * kx[:, None] * fh), inv(1j * ky[None, :] * fh)


def reference_laplacian(values, grid, half=True):
    fwd, inv = _transforms(grid, half)
    return -inv(reference_k2(grid, half) * fwd(values))


def reference_solve(values, grid, half=True):
    fwd, inv = _transforms(grid, half)
    return inv(fwd(values) * reference_inv_symbol(grid, half))


def reference_solve_gradient(values, grid, half=True):
    fwd, inv = _transforms(grid, half)
    kx, ky = reference_deriv_wavenumbers(grid, half)
    f_hat = fwd(values) * reference_inv_symbol(grid, half)
    return inv(1j * kx[:, None] * f_hat), inv(1j * ky[None, :] * f_hat)


def operator_outputs(ws, values):
    """Each operator's output on ``values``, in the order of ``references``."""
    from oitsample import gradient_spectral
    from oitsample.poisson import _solve_gradient

    f = ScalarField(ws.grid, values)
    grad = gradient_spectral(f)
    return (grad.u_x.values, grad.u_y.values, laplacian_spectral(f).values,
            solve_poisson(ws, f).values, *_solve_gradient(ws, values))


def references(values, grid, half):
    return (*reference_gradient(values, grid, half), reference_laplacian(values, grid, half),
            reference_solve(values, grid, half), *reference_solve_gradient(values, grid, half))


@pytest.mark.parametrize("shape", [(32, 48), (37, 20), (20, 37), (33, 33)])
class TestWavenumberTableMatchesReference:
    def test_workspace_tables(self, shape):
        g = PeriodicGrid(*shape)
        ws = PoissonWorkspace(g)
        kx, ky = reference_deriv_wavenumbers(g)
        assert ws.inv_symbol.shape == (g.n_x, g.n_y // 2 + 1)
        assert np.array_equal(ws.inv_symbol, reference_inv_symbol(g))
        assert np.array_equal(ws.deriv_kx, kx)
        assert np.array_equal(ws.deriv_ky, ky)
        assert np.array_equal(ws.k2, reference_k2(g))
        assert not (ws.k2.flags.writeable or ws.inv_symbol.flags.writeable
                    or ws.deriv_kx.flags.writeable or ws.deriv_ky.flags.writeable)

    def test_operators(self, shape, rng):
        g = PeriodicGrid(*shape)
        ws = PoissonWorkspace(g)
        for values in (rng.standard_normal(g.shape), bandlimited_field(g, rng).values):
            outputs = operator_outputs(ws, values)
            for out, ref in zip(outputs, references(values, g, half=True), strict=True):
                assert np.array_equal(out, ref)
            for out, ref in zip(outputs, references(values, g, half=False), strict=True):
                assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


def test_velocity_owns_real_memory(ws64, rng):
    """Each velocity component of the transport loop's solve is a real array
    of its own, not the real part of a complex one that it keeps alive."""
    from oitsample.poisson import _solve_gradient

    for v in _solve_gradient(ws64, rng.standard_normal(ws64.grid.shape)):
        assert v.dtype == np.float64 and v.shape == ws64.grid.shape
        base = v
        while base is not None:
            assert not np.iscomplexobj(base)
            base = base.base
