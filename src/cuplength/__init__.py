"""Exact cup-length and category bounds for oriented Grassmann manifolds over GF(2)."""

from .bounds import (
    BoundReport,
    OrientedSummary,
    check_a2,
    full_report,
    grossman_upper,
    lower_a3,
    prop_b_bound,
    prop_d_bound,
    summarize_oriented,
    upper_a1,
    upper_b1,
)
from .gf2poly import Gf2Polynomial, Monomial, ideal_gens_k3, inverse_series_components, parse_polynomial
from .gf2linalg import Eliminator
from .grassmann import (
    GradedQuotient,
    GrassmannPresentation,
    SizeCapExceeded,
)
from .heights import (
    HeightRecord,
    ZeroClassError,
    closed_form_w2_height,
    decompose_n,
    height_direct,
    rational_p1_height,
    tabulated_w2_height,
)

__version__ = "0.1.0"
