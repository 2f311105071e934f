"""chipurcell: chirality-sensitive Purcell effect.

Electric and chiral contributions to the spontaneous decay rate of a chiral
molecule inside a chiral bulk medium (with and without local-field
corrections, lossless or absorbing) and in front of chiral planar interfaces
(perfect chiral mirror, realistic chiral half-space), with closed-form
asymptotic limits and an independent numerical-quadrature pathway.
"""

from .constants import CONSTANTS, PhysicalConstants
from .media import MediumResponse
from .molecules import TransitionDipoles, rotatory_strength
from .rates import (
    Contraction,
    Method,
    RateBreakdown,
    degree_of_discrimination,
    gamma_ch_from_curl,
    gamma_el_from_img,
    gamma_vacuum,
)
from .bulk import (
    curl_img_g0_coincident,
    gamma_ch_bulk,
    gamma_el_bulk,
    img_g0_coincident,
    rates_bulk,
)
from .onsager import (
    CavityConfig,
    OnsagerCoefficients,
    curl_img_lfc,
    f0_main,
    f_factors,
    gamma_ch_lfc,
    gamma_el_lfc,
    onsager_coefficients,
    rates_lfc,
)
from .halfspace import (
    Handedness,
    Limit,
    PlanarGeometry,
    fresnel_nonretarded,
    fresnel_retarded,
    planar_reflections,
    rates_halfspace,
    rates_mirror,
    scatter_numeric,
)
from .sommerfeld import QuadratureResult, QuadratureSpec
from . import errors

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "PhysicalConstants",
    "MediumResponse",
    "TransitionDipoles",
    "rotatory_strength",
    "Contraction",
    "Method",
    "RateBreakdown",
    "degree_of_discrimination",
    "gamma_ch_from_curl",
    "gamma_el_from_img",
    "gamma_vacuum",
    "curl_img_g0_coincident",
    "img_g0_coincident",
    "gamma_ch_bulk",
    "gamma_el_bulk",
    "rates_bulk",
    "CavityConfig",
    "OnsagerCoefficients",
    "f_factors",
    "f0_main",
    "onsager_coefficients",
    "curl_img_lfc",
    "gamma_ch_lfc",
    "gamma_el_lfc",
    "rates_lfc",
    "Handedness",
    "Limit",
    "PlanarGeometry",
    "fresnel_nonretarded",
    "fresnel_retarded",
    "planar_reflections",
    "scatter_numeric",
    "rates_mirror",
    "rates_halfspace",
    "QuadratureSpec",
    "QuadratureResult",
    "errors",
]
