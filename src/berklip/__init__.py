"""Exact nonarchimedean invariants and Lipschitz bounds of rational maps
on the Berkovich projective line over QQ with a p-adic absolute value."""

from .berk import (
    BerkPoint,
    Direction,
    berk_equal,
    d_metric,
    diam_gauss,
    diam_infty,
    direction_key,
    gauss_point,
    iota,
    join_gauss,
    push_forward,
    rho,
    same_direction,
    seminorm,
)
from .errors import (
    BerkError,
    DegenerateMapError,
    FactoredFormRequiredError,
    InternalInvariantError,
    ParseError,
)
from .invariants import FiniteTree, InvariantBundle, TreeEdge, bundle, gpr, hull, rp_ord
from .lipschitz import (
    BoundReport,
    RadialProfile,
    bound_report,
    gpr_witness,
    invariant_bound,
    lip_classical,
    mobius_exact,
    radial_profile,
    resultant_bounds,
    sample_ratios,
    segment_lip,
)
from .projective import HomogCoords, ProjPoint, spherical_ord, unit_normalize
from .ratmap import (
    FactoredForm,
    RationalMap,
    eval_proj,
    from_coeffs,
    from_factored,
    gir_minors,
    mobius_from_matrix,
    normalize,
    post_compose,
    pre_compose,
    resultant_ord,
    resultant_ord_product,
)
from .valued import (
    Ord,
    ORD_INF,
    PPowerSum,
    ord_p,
    ppow_compare,
    ppow_decimal,
    ppow_normalize,
)

__version__ = "0.1.0"
