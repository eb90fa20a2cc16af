"""Statistical ground truth: histograms, chi-squared tests, rejection oracle.

The rejection sampler draws exactly from the bilinearly interpolated
density, which is also the law whose per-bin masses ``expected_bin_mass``
integrates; comparing transported samples against either therefore
isolates transport error from grid-discretization error.

P-values come from an in-package regularized incomplete gamma (series +
continued fraction), so no statistics library is required at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .geodesic import Density
from .grid import _POINT_BLOCK, TWO_PI, _pad, _Stencil
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
    if b_x < 1 or b_y < 1:
        raise InvalidInputError("need at least one bin per axis")
    grid = target.grid
    if grid.n_x % b_x or grid.n_y % b_y:
        raise InvalidInputError(
            f"grid {grid.n_x}x{grid.n_y} is not a multiple of bins {b_x}x{b_y}"
        )
    p = _pad(target.field.values)
    cells = 0.25 * (p[1:-1, 1:-1] + p[2:, 1:-1] + p[1:-1, 2:] + p[2:, 2:]) * grid.cell_volume
    m_x = grid.n_x // b_x
    m_y = grid.n_y // b_y
    return cells.reshape(b_x, m_x, b_y, m_y).sum(axis=(1, 3))


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
