"""Certified Bergman-kernel numerics for cusp forms on the modular group."""

from .errors import (
    CuspKernelError,
    CutoffExceeded,
    NoCuspForms,
    SupportViolation,
    TailTooLarge,
)
from .halfplane import (
    GammaMatrix,
    Point,
    automorphy_factor,
    fixed_point,
    hyp_distance,
    moebius_apply,
    pair_invariant,
)
from .kernel import (
    KernelResult,
    WeightConfig,
    b_term,
    bergman_R,
    offdiagonal_sum_bound,
    residual_certificate,
)
from .modgroup import (
    EllipticPoint,
    coset_row,
    elliptic_points_in_strip,
    min_displacement,
)
from .equidist import (
    BumpFunction2D,
    IntegralResult,
    TestFunction,
    dim_cusp_forms,
    integrate_horizontal,
    integrate_region,
    integrate_vertical,
    measure_density,
)
from .oracle import (
    PeterssonNorm,
    delta_coeffs,
    eval_delta_mp,
    petersson_norm_delta,
    verify_pretrace,
)

__version__ = "0.1.0"
