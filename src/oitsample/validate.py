"""Statistical ground truth: histograms, chi-squared tests, rejection oracle.

The rejection sampler draws exactly from the bilinearly interpolated
density, which is also the law whose per-bin masses ``expected_bin_mass``
integrates; comparing transported samples against either therefore
isolates transport error from grid-discretization error.

A sample-free certificate compares a second law with it exactly:
``inverse_law_mass`` gives the bin masses of the law of the map's stored
inverse, and ``law_certificate`` their total variation distance and N50,
the sample size at which the chi-squared test on those bins would reject
that law with probability 1/2.

P-values come from an in-package regularized incomplete gamma (series +
continued fraction), and the noncentral tail behind N50 from a Poisson
mixture of it, so no statistics library is required at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .geodesic import Density
from .grid import _POINT_BLOCK, TWO_PI, DiffeoMap, _corner_mean, _pad, _Stencil
from .sampler import SampleBatch, _uniform_stream

_STREAM_ORACLE = 0x6F726163  # "orac"; keeps oracle draws off the sampler stream

_MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class BinnedHistogram:
    """Counts over an equal-width periodic binning of the torus, shaped as the
    binning; construction keeps a read-only copy of the caller's array."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.counts, dtype=np.int64, order="C")
        if c.ndim != 2:
            raise InvalidInputError(f"counts must be a 2-D array, got shape {c.shape}")
        if (c < 0).any():
            raise InvalidInputError("counts must be nonnegative")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def histogram(batch: SampleBatch, b_x: int, b_y: int) -> BinnedHistogram:
    """Bin points with the right-open convention floor((x + pi)/width)."""
    if b_x < 1 or b_y < 1:
        raise InvalidInputError("need at least one bin per axis")
    pts = batch.points
    ix = ((pts[:, 0] + np.pi) * (b_x / TWO_PI)).astype(np.int64)
    iy = ((pts[:, 1] + np.pi) * (b_y / TWO_PI)).astype(np.int64)
    np.clip(ix, 0, b_x - 1, out=ix)
    np.clip(iy, 0, b_y - 1, out=iy)
    counts = np.bincount(ix * b_y + iy, minlength=b_x * b_y)
    return BinnedHistogram(counts.reshape(b_x, b_y))


def expected_bin_mass(target: Density, b_x: int, b_y: int) -> np.ndarray:
    """Per-bin mass of the bilinearly interpolated target density.

    The integral of the interpolant over one grid cell is the cell's
    corner average times the cell volume, so bin masses are exact sums of
    cell masses.  Requires the grid resolution to be a multiple of the bin
    resolution; returns shape (b_x, b_y), summing to the density's mass.
    """
    grid = target.grid
    p = _pad(target.field.values)
    cells = 0.25 * (p[1:-1, 1:-1] + p[2:, 1:-1] + p[1:-1, 2:] + p[2:, 2:]) * grid.cell_volume
    return _bin_sums(cells, b_x, b_y)


def _bin_sums(cells: np.ndarray, b_x: int, b_y: int) -> np.ndarray:
    """Sums of cell values over the (b_x, b_y) bins; the one check that the
    bins divide the cell grid."""
    n_x, n_y = cells.shape
    if b_x < 1 or b_y < 1:
        raise InvalidInputError("need at least one bin per axis")
    if n_x % b_x or n_y % b_y:
        raise InvalidInputError(f"grid {n_x}x{n_y} is not a multiple of bins {b_x}x{b_y}")
    return cells.reshape(b_x, n_x // b_x, b_y, n_y // b_y).sum(axis=(1, 3))


def inverse_law_mass(mapping: DiffeoMap, b_x: int, b_y: int) -> np.ndarray | None:
    """Per-bin mass of the inverse law, exactly: the law of y solving
    psi(y) = u for uniform u, where psi is the bilinear interpolant of the
    map's stored inverse.

    Its density is u0 * det D psi, so a cell's mass is u0 * h_x * h_y times
    the cell's mean corner determinant (``grid._corner_mean``), and a bin's
    mass is the sum over its cells; the masses sum to 1.  Returns shape
    (b_x, b_y), or None when the masses are no law on these bins: the map
    has no inverse, the bins do not divide its grid, or psi folds, which
    its construction as a ``DiffeoMap`` decides from the least corner
    determinant.
    """
    grid = mapping.grid
    if mapping.inv_disp is None:
        return None
    try:
        inverse = DiffeoMap(mapping.inv_disp)
        cells = _corner_mean(grid, *inverse._padded)
        cells *= grid.cell_volume / TWO_PI**2  # u0 * h_x * h_y
        return _bin_sums(cells, b_x, b_y)
    except InvalidInputError:  # psi folds or moves a point by over a period, or bad bins
        return None


# ---------------------------------------------------------------------------
# regularized incomplete gamma, for chi-squared tail probabilities


def _gamma_p_series(a: float, x: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(10000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x), accurate to ~1e-14."""
    if a <= 0.0 or x < 0.0:
        raise InvalidInputError("need a > 0 and x >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def chi_squared_survival(x: float, dof: int) -> float:
    """P(Chi2_dof >= x)."""
    if dof < 1:
        raise InvalidInputError("dof must be positive")
    return regularized_gamma_q(0.5 * dof, 0.5 * x)


def _noncentral_survival(x: float, dof: int, nc: float) -> float:
    """P(X >= x) for X noncentral chi-squared with ``dof`` degrees of freedom
    and noncentrality ``nc``: the Poisson(nc/2) mixture over j of the
    central tails Q(dof/2 + j, x/2).

    One incomplete gamma starts the tails, and Q(a+1, x) = Q(a, x) +
    x^a e^-x / Gamma(a+1) gives the rest; the mixture stops 12 standard
    deviations and 40 terms above the Poisson mean, where the weight left
    is below 1e-30.
    """
    if nc == 0.0 or x == 0.0:
        return chi_squared_survival(x, dof)
    m, a, hx = 0.5 * nc, 0.5 * dof, 0.5 * x
    log_m, log_hx = math.log(m), math.log(hx)
    tail = regularized_gamma_q(a, hx)
    total = 0.0
    for j in range(int(m + 12.0 * math.sqrt(m)) + 41):
        total += math.exp(j * log_m - m - math.lgamma(j + 1.0)) * tail
        tail += math.exp(a * log_hx - hx - math.lgamma(a + 1.0))
        a += 1.0
    return min(total, 1.0)


def _increasing_root(f, x: float) -> float:
    """The root of ``f``, increasing with ``f(0) < 0``, by a secant solve.

    ``x`` doubles until ``f(x) > 0``; secant steps then stay inside the
    bracket (the Illinois variant of regula falsi) until ``|f|`` is below
    1e-14 or the bracket below 1e-13 of its upper end, 100 steps at most.
    """
    lo, f_lo = 0.0, f(0.0)
    hi, f_hi = x, f(x)
    while f_hi <= 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        f_hi = f(hi)
    side = 0
    for _ in range(100):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        fx = f(x)
        if abs(fx) < 1e-14 or hi - lo <= 1e-13 * hi:
            return x
        if fx > 0.0:
            hi, f_hi = x, fx
            if side > 0:  # the same end moved twice: halve the other's weight
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = x, fx
            if side < 0:
                f_hi *= 0.5
            side = -1
    return x


def _chi_squared_critical(dof: int, significance: float) -> float:
    """The c with P(Chi2_dof >= c) = ``significance``."""
    return _increasing_root(lambda c: significance - chi_squared_survival(c, dof), float(dof))


def _half_power_noncentrality(dof: int, significance: float) -> float:
    """lambda_50: the noncentrality at which the chi-squared test of level
    ``significance`` on ``dof`` degrees of freedom rejects with probability
    1/2."""
    crit = _chi_squared_critical(dof, significance)
    return _increasing_root(lambda nc: _noncentral_survival(crit, dof, nc) - 0.5,
                            max(crit - dof, 1.0))


def law_certificate(mass: np.ndarray, expected_mass: np.ndarray,
                    significance: float) -> tuple[float, float]:
    """(TV, N50) of the bin masses ``mass`` against ``expected_mass``, on
    the same bins.

    TV is half the summed absolute difference.  A sample of N points from
    ``mass``, tested against ``expected_mass`` on the same bins, gives a
    Pearson statistic that is about noncentral chi-squared, with noncentrality
    N * sum((mass - expected)^2 / expected) and one degree of freedom fewer
    than bins.  N50 is the N at which that test, at level
    ``significance``, rejects with probability 1/2; inf when the masses
    are equal.
    """
    p = np.asarray(mass, dtype=np.float64).reshape(-1)
    q = np.asarray(expected_mass, dtype=np.float64).reshape(-1)
    tv = 0.5 * float(np.abs(p - q).sum())
    per_sample = float(((p - q) ** 2 / q).sum())
    if per_sample == 0.0:
        return tv, math.inf
    return tv, _half_power_noncentrality(p.size - 1, significance) / per_sample


# ---------------------------------------------------------------------------
# deterministic low-count bin merging


def _merge_small_bins(b_x: int, b_y: int, sizes: np.ndarray,
                      payloads: list[np.ndarray]) -> list[np.ndarray]:
    """Merge bins whose ``sizes`` entry is below the 5-count threshold.

    Scans bins in row-major order, repeatedly, absorbing each low bin into
    its largest 4-adjacent neighbor group on the bin torus (ties go to the
    smaller root index).  ``sizes`` and every payload accumulate group-wise.
    Returns the payloads restricted to surviving groups, in row-major root
    order.  Raises DegenerateInputError if fewer than two groups survive.
    """
    total = b_x * b_y
    parent = np.arange(total)
    sizes = sizes.astype(np.float64).copy()
    payloads = [p.astype(np.float64).copy() for p in payloads]

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    changed = True
    while changed:
        changed = False
        for b in range(total):
            root = find(b)
            if root != b or sizes[root] >= _MIN_EXPECTED:
                continue
            i, j = divmod(b, b_y)
            neighbors = {
                find(((i - 1) % b_x) * b_y + j),
                find(((i + 1) % b_x) * b_y + j),
                find(i * b_y + (j - 1) % b_y),
                find(i * b_y + (j + 1) % b_y),
            }
            neighbors.discard(root)
            if not neighbors:
                continue
            target = max(sorted(neighbors), key=lambda g: (sizes[g], -g))
            sizes[target] += sizes[root]
            for p in payloads:
                p[target] += p[root]
            parent[root] = target
            changed = True

    roots = sorted({find(b) for b in range(total)})
    if len(roots) < 2:
        raise DegenerateInputError("bin merging collapsed everything into one group")
    idx = np.asarray(roots)
    return [p[idx] for p in payloads]


def _pearson(b_x: int, b_y: int, sizes: np.ndarray, pairs: list[tuple[np.ndarray, ...]]):
    """(statistic, dof, p_value) of Pearson's sum over ``pairs`` of per-bin
    (observed, expected) arrays, once bins are merged by ``sizes``."""
    merged = _merge_small_bins(b_x, b_y, sizes, [a for pair in pairs for a in pair])
    stat = float(sum((((obs - exp) ** 2) / exp).sum()
                     for obs, exp in zip(merged[0::2], merged[1::2])))
    dof = len(merged[0]) - 1
    return stat, dof, chi_squared_survival(stat, dof)


def chi_squared_gof(hist: BinnedHistogram, expected_mass: np.ndarray):
    """Pearson goodness-of-fit test of counts against expected masses.

    Bins with expected count below 5 are merged deterministically first.
    Returns (statistic, dof, p_value).
    """
    mass = np.asarray(expected_mass, dtype=np.float64).reshape(-1)
    if mass.size != hist.counts.size:
        raise InvalidInputError("expected-mass size does not match binning")
    if hist.total == 0:
        raise DegenerateInputError("goodness-of-fit test needs a nonempty histogram")
    expected = hist.total * mass
    return _pearson(*hist.counts.shape, expected, [(hist.counts.reshape(-1), expected)])


def two_sample_chi_squared(a: BinnedHistogram, b: BinnedHistogram):
    """Pearson two-sample test with pooled expectations.

    Merging uses the smaller of the two per-bin expected counts, so every
    surviving group has at least 5 expected in both samples.
    Returns (statistic, dof, p_value).
    """
    if a.counts.shape != b.counts.shape:
        raise InvalidInputError("histograms use different binnings")
    n_a = a.total
    n_b = b.total
    if n_a == 0 or n_b == 0:
        raise DegenerateInputError("two-sample test needs nonempty histograms")
    obs_a = a.counts.reshape(-1).astype(np.float64)
    obs_b = b.counts.reshape(-1).astype(np.float64)
    pooled = (obs_a + obs_b) / (n_a + n_b)
    exp_a = n_a * pooled
    exp_b = n_b * pooled
    return _pearson(*a.counts.shape, np.minimum(exp_a, exp_b),
                    [(obs_a, exp_a), (obs_b, exp_b)])


# ---------------------------------------------------------------------------
# exact ground-truth sampler


def rejection_sample_oracle(target: Density, n: int, seed: int) -> SampleBatch:
    """Exact i.i.d. samples from the interpolated target density.

    Proposes uniformly on the torus and accepts with probability
    mu(x)/max(mu); bilinear interpolation never exceeds the nodal maximum,
    so the envelope is sound.  Fully determined by the seed (a dedicated
    counter-based stream, independent of ``draw_uniform``'s).  Proposals
    are drawn and evaluated ``_POINT_BLOCK`` at a time: row ``(u, v, w)``
    proposes ``-pi + 2*pi*(u, v)`` and accepts it when ``w * max(mu)`` lies
    below the density there.  Accepts are kept in stream order, so the
    block size changes none of the points.
    """
    if n < 0:
        raise InvalidInputError(f"sample count must be nonnegative, got {n}")
    vmax = float(target.field.values.max())
    padded = _pad(target.field.values)
    accepted: list[np.ndarray] = []
    got = 0
    proposed = 0  # proposals drawn so far; each takes 3 uniforms
    while got < n:
        rows = _uniform_stream(seed, _STREAM_ORACLE, 3 * proposed,
                               3 * _POINT_BLOCK).reshape(_POINT_BLOCK, 3)
        proposed += _POINT_BLOCK
        px = -np.pi + TWO_PI * rows[:, 0]
        py = -np.pi + TWO_PI * rows[:, 1]
        density_at = _Stencil(target.grid, px, py).gather(padded)
        hits = np.flatnonzero(rows[:, 2] * vmax < density_at)[: n - got]
        accepted.append(np.column_stack((px[hits], py[hits])))
        got += len(hits)
    return SampleBatch(np.concatenate(accepted) if accepted else np.empty((0, 2)))
