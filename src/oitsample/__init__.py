"""Random sampling from nonuniform densities on the flat 2-torus.

A density-matching diffeomorphism is built once by integrating Poisson
velocity fields along the closed-form Fisher-Rao geodesic from the uniform
density to the target; after that, fresh i.i.d. samples cost one uniform
draw and one map evaluation each.
"""

from .densities import make_density
from .errors import (
    DegenerateInputError,
    FileFormatError,
    GridMismatchError,
    InvalidInputError,
    NumericalBlowupError,
    OrientationLossError,
    PositivityError,
)
from .geodesic import (
    Density,
    GeodesicPath,
    geodesic_eval,
    geodesic_path,
    normalize,
    quadrature,
    set_dynamic_range,
    uniform_density,
)
from .grid import (
    DiffeoMap,
    PeriodicGrid,
    ScalarField,
    VectorField,
    interp_scalar,
    jacobian_det,
)
from .poisson import PoissonWorkspace, gradient_spectral, laplacian_spectral, solve_poisson
from .sampler import SampleBatch, sample_target
from .transport import TransportConfig, TransportResult, build_transport_map
from .validate import (
    BinnedHistogram,
    chi_squared_gof,
    chi_squared_survival,
    expected_bin_mass,
    histogram,
    rejection_sample_oracle,
    two_sample_chi_squared,
)

__version__ = "0.1.0"

__all__ = [
    "BinnedHistogram",
    "DegenerateInputError",
    "Density",
    "DiffeoMap",
    "FileFormatError",
    "GeodesicPath",
    "GridMismatchError",
    "InvalidInputError",
    "NumericalBlowupError",
    "OrientationLossError",
    "PeriodicGrid",
    "PoissonWorkspace",
    "PositivityError",
    "SampleBatch",
    "ScalarField",
    "TransportConfig",
    "TransportResult",
    "VectorField",
    "build_transport_map",
    "chi_squared_gof",
    "chi_squared_survival",
    "expected_bin_mass",
    "geodesic_eval",
    "geodesic_path",
    "gradient_spectral",
    "histogram",
    "interp_scalar",
    "jacobian_det",
    "laplacian_spectral",
    "make_density",
    "normalize",
    "quadrature",
    "rejection_sample_oracle",
    "sample_target",
    "set_dynamic_range",
    "solve_poisson",
    "two_sample_chi_squared",
    "uniform_density",
]
