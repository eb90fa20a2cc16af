import numpy as np
import pytest

from oitsample import (
    Density,
    DegenerateInputError,
    GridMismatchError,
    InvalidInputError,
    PeriodicGrid,
    PositivityError,
    ScalarField,
    geodesic_eval,
    geodesic_path,
    make_density,
    normalize,
    quadrature,
    set_dynamic_range,
    uniform_density,
)
from oitsample.geodesic import GeodesicPath, log_density_rate


class TestNormalize:
    def test_constant_becomes_uniform(self):
        g = PeriodicGrid(32, 32)
        d = normalize(ScalarField.constant(g, 7.0))
        assert np.allclose(d.field.values, 1.0 / (4 * np.pi**2), rtol=1e-12)
        assert d.mass == pytest.approx(1.0, abs=1e-12)

    def test_scaling_drops_out(self):
        g = PeriodicGrid(64, 64)
        raw = ScalarField.from_function(g, lambda x, y: 2.0 * (1.0 + 0.5 * np.sin(x)))
        d = normalize(raw)
        X, _ = g.node_mesh()
        expected = (1.0 + 0.5 * np.sin(X)) / (4 * np.pi**2)
        assert np.allclose(d.field.values, expected, rtol=1e-12)

    def test_negative_entry_rejected(self):
        g = PeriodicGrid(8, 8)
        values = np.ones(g.shape)
        values[3, 4] = -0.5
        with pytest.raises(PositivityError):
            normalize(ScalarField(g, values))

    def test_non_positive_value_prints_as_a_plain_float(self):
        """The message reads the same under every numpy: ``0.0``, not
        numpy 2's ``np.float64(0.0)``."""
        g = PeriodicGrid(8, 8)
        values = np.ones(g.shape)
        values[3, 4] = 0.0
        with pytest.raises(PositivityError) as exc:
            normalize(ScalarField(g, values))
        assert str(exc.value) == "field has non-positive value 0.0"

    def test_zero_field_rejected(self):
        g = PeriodicGrid(8, 8)
        with pytest.raises(DegenerateInputError):
            normalize(ScalarField.constant(g, 0.0))

    def test_uniform_density_matches_normalized_ones(self):
        g = PeriodicGrid(16, 16)
        assert np.array_equal(uniform_density(g).field.values,
                              normalize(ScalarField.constant(g, 1.0)).field.values)


class TestSetDynamicRange:
    def test_already_at_ratio_is_untouched(self):
        g = PeriodicGrid(8, 8)
        values = np.linspace(0.1, 10.0, 64).reshape(8, 8)
        out = set_dynamic_range(ScalarField(g, values), 100.0)
        # beta = (10 - 100*0.1)/99 = 0
        assert np.array_equal(out.values, values)

    def test_ratio_two_with_max_two_min_one(self):
        g = PeriodicGrid(8, 8)
        values = np.linspace(1.0, 2.0, 64).reshape(8, 8)
        out = set_dynamic_range(ScalarField(g, values), 2.0)
        assert np.array_equal(out.values, values)

    @pytest.mark.parametrize("ratio", [1.5, 10.0, 100.0, 2500.0])
    def test_requested_ratio_is_hit_exactly(self, ratio, rng):
        g = PeriodicGrid(16, 16)
        raw = ScalarField(g, rng.uniform(0.2, 9.0, g.shape))
        out = set_dynamic_range(raw, ratio)
        assert out.values.min() > 0
        assert out.values.max() / out.values.min() == pytest.approx(ratio, rel=1e-12)

    def test_ratio_one_rejected(self):
        g = PeriodicGrid(8, 8)
        raw = ScalarField(g, np.linspace(1, 2, 64).reshape(8, 8))
        with pytest.raises(InvalidInputError):
            set_dynamic_range(raw, 1.0)

    def test_constant_rejected(self):
        g = PeriodicGrid(8, 8)
        with pytest.raises(DegenerateInputError):
            set_dynamic_range(ScalarField.constant(g, 2.0), 10.0)

    def test_negative_values_rejected(self):
        g = PeriodicGrid(8, 8)
        values = np.linspace(-1.0, 2.0, 64).reshape(8, 8)
        with pytest.raises(InvalidInputError):
            set_dynamic_range(ScalarField(g, values), 10.0)


class TestAngle:
    @pytest.mark.parametrize("n", [16, 48, 64, 100, 256])
    def test_zero_for_identical_densities(self, n):
        g = PeriodicGrid(n, n)
        mu0 = uniform_density(g)
        assert GeodesicPath(mu0, mu0).angle == 0.0

    def test_oracle_for_sine_density(self):
        # independent 1-D quadrature of the affinity of 1 + 0.8 sin(x)
        m = 1 << 13
        x = -np.pi + np.arange(m) * (2 * np.pi / m)
        oracle = np.arccos(np.mean(np.sqrt(1.0 + 0.8 * np.sin(x))))
        g = PeriodicGrid(256, 256)
        mu1 = normalize(ScalarField.from_function(g, lambda X, Y: 1.0 + 0.8 * np.sin(X)))
        angle = GeodesicPath(uniform_density(g), mu1).angle
        assert angle == pytest.approx(oracle, abs=1e-8)

    def test_bounded_below_right_angle(self, rng):
        g = PeriodicGrid(32, 32)
        mu0 = uniform_density(g)
        for _ in range(5):
            mu1 = normalize(ScalarField(g, rng.uniform(0.01, 5.0, g.shape)))
            angle = GeodesicPath(mu0, mu1).angle
            assert 0.0 <= angle < np.pi / 2

    def test_monotone_in_sine_amplitude(self):
        g = PeriodicGrid(64, 64)
        mu0 = uniform_density(g)
        angles = []
        for s in (0.0, 0.2, 0.4, 0.6, 0.8):
            field = ScalarField.from_function(g, lambda X, Y: 1.0 + s * np.sin(X))
            angles.append(GeodesicPath(mu0, normalize(field)).angle)
        assert angles[0] == 0.0
        assert all(a < b for a, b in zip(angles, angles[1:]))

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            GeodesicPath(uniform_density(PeriodicGrid(16, 16)),
                         uniform_density(PeriodicGrid(32, 32))).angle

    def test_path_angle_consistent_with_affinity(self):
        g = PeriodicGrid(64, 64)
        mu0 = uniform_density(g)
        mu1 = make_density("two-bump", g)
        path = geodesic_path(mu0, mu1)
        affinity = quadrature(
            ScalarField(g, path.sqrt_ratio.values * mu0.field.values))
        assert np.cos(path.angle) == pytest.approx(affinity, abs=1e-10)


class TestGeodesicPath:
    def test_grid_mismatch_is_checked_first(self):
        """Unequal grids raise GridMismatchError, before any array arithmetic
        on the two endpoints could raise a broadcasting error."""
        with pytest.raises(GridMismatchError):
            GeodesicPath(uniform_density(PeriodicGrid(8, 8)),
                         uniform_density(PeriodicGrid(8, 16)))

    def test_derives_angle_and_ratio_from_the_endpoints(self):
        g = PeriodicGrid(32, 32)
        mu0 = make_density("sine-perturbation", g)
        mu1 = make_density("two-bump", g)
        path = GeodesicPath(mu0, mu1)
        assert path.angle == GeodesicPath(mu0, mu1).angle
        assert np.array_equal(path.sqrt_ratio.values,
                              np.sqrt(mu1.field.values / mu0.field.values))


@pytest.fixture(scope="module")
def path():
    g = PeriodicGrid(64, 64)
    return geodesic_path(uniform_density(g), make_density("two-bump", g))


class TestGeodesicEval:

    def test_endpoints_exact(self, path):
        mu_start, _ = geodesic_eval(path, 0.0)
        mu_end, _ = geodesic_eval(path, 1.0)
        assert np.array_equal(mu_start.field.values, path.mu0.field.values)
        assert np.array_equal(mu_end.field.values, path.mu1.field.values)

    def test_derivative_matches_finite_differences(self, path):
        delta = 1e-5
        for t in (0.1, 0.37, 0.9):
            _, mu_dot = geodesic_eval(path, t)
            hi, _ = geodesic_eval(path, t + delta)
            lo, _ = geodesic_eval(path, t - delta)
            fd = (hi.field.values - lo.field.values) / (2 * delta)
            rel = np.abs(fd - mu_dot.values).max() / np.abs(mu_dot.values).max()
            assert rel <= 1e-6

    def test_mass_conserved_along_path(self, path):
        g = path.mu0.grid
        for t in np.linspace(0.0, 1.0, 101):
            mu_t, mu_dot = geodesic_eval(path, float(t))
            assert abs(quadrature(mu_t.field) - 1.0) <= 1e-10
            assert abs(quadrature(mu_dot)) <= 1e-9
            assert mu_t.field.values.min() > 0.0

    def test_time_out_of_range(self, path):
        with pytest.raises(InvalidInputError):
            geodesic_eval(path, -0.01)
        with pytest.raises(InvalidInputError):
            geodesic_eval(path, 1.01)

    def test_branch_continuity_at_angle_switch(self):
        # same endpoints, angle nudged across the small-angle threshold; the
        # derived angle of these endpoints is 0 (GeodesicPath clamps
        # affinity deficits below 1e-12), so the test sets it directly
        g = PeriodicGrid(32, 32)
        mu0 = uniform_density(g)
        amp = 2.8e-8  # affinity deficit ~ amp^2/16, angle ~ 1e-8
        mu1 = normalize(ScalarField.from_function(g, lambda X, Y: 1.0 + amp * np.sin(X)))
        below = GeodesicPath(mu0, mu1)
        above = GeodesicPath(mu0, mu1)
        object.__setattr__(below, "angle", 0.99e-8)
        object.__setattr__(above, "angle", 1.01e-8)
        for t in (0.25, 0.5, 0.75):
            mu_b, dot_b = geodesic_eval(below, t)
            mu_a, dot_a = geodesic_eval(above, t)
            assert np.allclose(mu_b.field.values, mu_a.field.values, rtol=1e-7)
            scale = max(np.abs(dot_b.values).max(), 1e-300)
            assert np.abs(dot_b.values - dot_a.values).max() / scale <= 1e-7

    def test_log_density_rate_is_ratio_of_eval(self, path):
        for t in (0.0, 0.31, 0.99):
            mu_t, mu_dot = geodesic_eval(path, t)
            rate = log_density_rate(path, t)
            assert np.allclose(rate.values, mu_dot.values / mu_t.field.values,
                               rtol=1e-12, atol=1e-14)


class TestDensityInvariants:
    def test_rejects_wrong_mass(self):
        g = PeriodicGrid(8, 8)
        with pytest.raises(InvalidInputError):
            Density(ScalarField.constant(g, 1.0))

    def test_computes_its_own_mass(self):
        """A field ten times a unit-mass density is refused, naming its mass."""
        g = PeriodicGrid(32, 32)
        field = ScalarField(g, 10 * make_density("two-bump", g).field.values)
        with pytest.raises(InvalidInputError) as exc:
            Density(field)
        assert str(exc.value) == f"density mass {quadrature(field)!r} is not 1"

    def test_wrong_mass_prints_as_a_plain_float(self):
        g = PeriodicGrid(8, 8)
        field = ScalarField.constant(g, 2.0 / (4 * np.pi**2))  # mass exactly 2.0
        with pytest.raises(InvalidInputError) as exc:
            Density(field)
        assert str(exc.value) == "density mass 2.0 is not 1"

    def test_rejects_below_floor(self):
        g = PeriodicGrid(8, 8)
        values = np.full(g.shape, 1.0 / (4 * np.pi**2))
        values[0, 0] = 1e-13
        with pytest.raises(PositivityError):
            Density(ScalarField(g, values))
