"""Localized traces, cocycles and index pairings for conformal crossed
products."""

from . import algebra, cocycles, config, dist, fields, groupoid, pairing, tensoralg
from .algebra import (
    CrossedForm,
    DWord,
    FormCoefficient,
    WordCrossedForm,
    diff_D,
    diff_d,
    diff_delta,
    diff_nabla,
    diff_partial,
    diff_partial_bar,
    fc_field,
    word_mu,
)
from .cocycles import (
    chern1,
    cyclic_defect,
    fundamental_class,
    hochschild_b,
    integrate_units,
    integrate_units_words,
    phi_trace,
    phi_trace_words,
    todd,
    todd_dual_defect,
    transport_coordinates,
)
from .config import ConfigError, load_scenario, parse_scenario
from .dist import RenormKernel, check_covariance, check_dolbeault, pair_kernel
from .fields import Box, Disk, EmptyRegion, ScalarField, WholePlane
from .groupoid import (
    AffineMap,
    FiniteCyclicAction,
    FreeGeneratorsAction,
    IdentityMap,
    MatrixMobiusAction,
    MobiusMap,
    PolyMap,
    automorphism_order,
    fixed_points,
    trivial_action,
)
from .pairing import (
    InternalConsistencyError,
    anomaly_delta0,
    anomaly_delta1,
    pair_even,
    pair_odd,
)
from .tensoralg import (
    CertificateError,
    GroupCocycle1,
    crossed_max_abs,
    lift_idempotent,
    lift_invertible,
    nat_key,
    universal_d,
)

__version__ = "0.1.0"
