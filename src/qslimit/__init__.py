"""Numerics for the limit law of quicksort's comparison count.

Two independent routes to the limiting density (Fourier inversion of the
characteristic-function fixed point, and successive substitution on the
density integral equation), certified decay bounds on the characteristic
function with their integrated sup-norm consequences, the moment recursion,
and exact/sampled finite-n comparison counts to check against.
"""

from .cf_bounds import BoundChain, DecayBound, PiecewiseEnvelope, build_chain, make_envelope
from .cf_solver import CfGrid, init_gaussian_cf, invert_cf, iterate_cf
from .core_numerics import (
    Grid,
    IterationError,
    QuadratureError,
    QuadratureSpec,
    g_func,
    integrate,
)
from .density_solver import DensityGrid, apply_T, cdf, gaussian_density, iterate_density
from .envelope_integrals import maxf_theorem_check, sup_fk_bound
from .moments import VARIANCE, MomentSequence, pump_moments
from .quicksort_sim import exact_mean, exact_variance, sample_many, simulate

__version__ = "0.1.0"

__all__ = [
    "BoundChain",
    "CfGrid",
    "DecayBound",
    "DensityGrid",
    "Grid",
    "IterationError",
    "MomentSequence",
    "PiecewiseEnvelope",
    "QuadratureError",
    "QuadratureSpec",
    "VARIANCE",
    "apply_T",
    "build_chain",
    "cdf",
    "exact_mean",
    "exact_variance",
    "g_func",
    "gaussian_density",
    "init_gaussian_cf",
    "integrate",
    "invert_cf",
    "iterate_cf",
    "iterate_density",
    "make_envelope",
    "maxf_theorem_check",
    "pump_moments",
    "sample_many",
    "simulate",
    "sup_fk_bound",
    "__version__",
]
