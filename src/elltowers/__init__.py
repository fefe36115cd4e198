"""Exact arithmetic for abelian ell-towers of multigraphs.

Build cyclic derived covers from voltage assignments, count spanning
trees exactly at every level, and compute the valuation law
ord_p(kappa_n) = mu * ell^n + nu together with the boundedness
classification of the number of prime divisors of kappa_n.
"""

from .analysis import (
    EllFit,
    InapplicableError,
    InconclusiveError,
    N0Search,
    PrimeAnalysisReport,
    PrimeEqualsEllError,
    StabilizationBounds,
    Tower,
    analyze_prime,
    default_mt_check_level,
    eventual_prime_count,
    inertia_degree,
    iwasawa_fit_ell,
    level_norm,
    n0_search,
    stabilization_bounds,
)
from .factorint import FactoredInteger, factor_kappa
from .genpoly import (
    GenPoly,
    GenPolyMatrix,
    NonIntegralExponentError,
    determinant,
    mu_invariant,
    voltage_matrix,
)
from .graphs import (
    DisconnectedGraphError,
    Multigraph,
    ValidationReport,
    VoltageAssignment,
    cover_connected_by_voltages,
    derived_graph,
    euler_characteristic,
    is_connected,
    spanning_tree_count,
    validate,
)
from .intpoly import IntPoly, cyclotomic, resultant, unit_root_factor
from .omega import OmegaClassification, classify_omega, strip_cyclotomics
from .padics import AmbiguousBranchError, NonResidueError, PrecisionError, TruncatedPadic, padic_sqrt
from .towerspec import SpecParseError, TowerSpec, build_assignment, parse_tower_spec

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
