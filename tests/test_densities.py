import warnings

import numpy as np
import pytest

from oitsample import InvalidInputError, PeriodicGrid, TransportConfig, build_transport_map
from oitsample.densities import REGISTRY, make_density, parse_density_spec


class TestParse:
    def test_plain_name(self):
        assert parse_density_spec("uniform") == ("uniform", None)

    def test_name_with_parameter(self):
        assert parse_density_spec("sine-perturbation:0.8") == ("sine-perturbation", 0.8)

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            parse_density_spec("blob")

    def test_bad_parameter(self):
        with pytest.raises(InvalidInputError):
            parse_density_spec("sine-perturbation:abc")

    @pytest.mark.parametrize("spec", ["uniform:1", "two-bump:5"])
    def test_parameter_nothing_reads(self, spec):
        with pytest.raises(InvalidInputError, match="takes no parameter"):
            parse_density_spec(spec)

    @pytest.mark.parametrize("spec,message", [
        ("uniform:", "density 'uniform' takes no parameter, got ''"),
        ("two-bump:", "density 'two-bump' takes no parameter, got ''"),
        ("sine-perturbation:", "bad density parameter ''"),
    ])
    def test_colon_with_nothing_after_it(self, spec, message):
        """A ``:`` always brings a parameter, so an empty one is refused, not
        read as no parameter."""
        with pytest.raises(InvalidInputError) as exc:
            parse_density_spec(spec)
        assert str(exc.value) == message


class TestRegistry:
    def test_uniform(self):
        g = PeriodicGrid(32, 32)
        d = make_density("uniform", g)
        assert np.allclose(d.field.values, 1.0 / (4 * np.pi**2), rtol=1e-12)

    def test_two_bump_defaults_to_ratio_100(self):
        g = PeriodicGrid(128, 128)
        d = make_density("two-bump", g)
        v = d.field.values
        assert v.max() / v.min() == pytest.approx(100.0, rel=1e-10)
        assert abs(d.mass - 1.0) <= 1e-10

    def test_two_bump_ratio_override(self):
        g = PeriodicGrid(64, 64)
        d = make_density("two-bump", g, ratio=10.0)
        v = d.field.values
        assert v.max() / v.min() == pytest.approx(10.0, rel=1e-10)

    def test_two_bump_has_two_modes(self):
        # one bump near (0, -1)-ish along the banana, one near (-1, 0)
        g = PeriodicGrid(128, 128)
        d = make_density("two-bump", g)
        X, Y = g.node_mesh()
        left = d.field.values[(np.abs(X + 1.0) < 0.4) & (np.abs(Y) < 0.4)].max()
        banana = d.field.values[(np.abs(X) < 0.4) & (np.abs(Y + 1.0) < 0.4)].max()
        background = d.field.values[(np.abs(X - 2.5) < 0.4) & (np.abs(Y - 2.5) < 0.4)].max()
        assert left > 10 * background
        assert banana > 10 * background

    def test_gaussian_bump_peaks_at_origin(self):
        g = PeriodicGrid(64, 64)
        d = make_density("one-gaussian-bump", g, ratio=50.0)
        peak = np.unravel_index(np.argmax(d.field.values), g.shape)
        assert g.xs[peak[0]] == pytest.approx(0.0, abs=g.h_x)
        assert g.ys[peak[1]] == pytest.approx(0.0, abs=g.h_y)

    def test_sine_amplitude_validation(self):
        g = PeriodicGrid(16, 16)
        with pytest.raises(InvalidInputError):
            make_density("sine-perturbation:1.5", g)

    def test_gaussian_width_validation(self):
        g = PeriodicGrid(16, 16)
        with pytest.raises(InvalidInputError):
            make_density("one-gaussian-bump:-1", g)


@pytest.mark.parametrize("spec", sorted(REGISTRY))
def test_default_builtin_builds_within_tolerance(spec):
    # Each built-in as `--density <name>` gives it, at 128x128 and 50 steps.
    # Measured residuals: uniform 0, two-bump 2.22e-2, one-gaussian-bump
    # 1.41e-2, sine-perturbation 4.8e-4; the tolerance is 5e-2.
    grid = PeriodicGrid(128, 128)
    cfg = TransportConfig(steps=50, grid=grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = build_transport_map(make_density(spec, grid), cfg)
    assert result.residual <= cfg.residual_tol
