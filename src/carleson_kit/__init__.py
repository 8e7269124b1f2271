"""Numerical toolkit for free-interpolation geometry in the unit disk:
kernels and pseudo-hyperbolic metrics, discrete Hardy-space calculus,
Carleson measures, model subspaces, Riesz-system diagnostics, level
contours of bounded functions, contour-net constructions, and the
weighted exponential-system hierarchy.
"""

from .blaschke import (BlaschkeProduct, InterpolationReport, interpolation_constants,
                       net_is_valid, place_net_on_curve)
from .carleson import (CurveMeasure, DiscreteMeasure, carleson_norm,
                       embedding_constant_empirical, kernel_test_constant)
from .construction import (ContourNetEntry, PointSystem, build_contour_nets,
                           check_two_eps_margins, condition_sums, epsilon_net_split,
                           lemma_10_1_check, measure_c_alpha, n_power_for,
                           unit_sphere_net, validate_epsilon_choice)
from .contour import (BoundedFunction, ContourConstants, ContourResult,
                      RepresentingMeasure, bourgain_contour, check_potential_bounds,
                      select_bad_intervals, verify_region)
from .disk import Arc, dyadic_arc, hyperbolic_grid, kernel, kernel_inner
from .errors import (ContourBoundError, DomainError, LinearDependenceError,
                     NetValidityError)
from .hardy import BoundaryGrid, poisson_sum, riesz_project
from .model_space import MatrixFunction, kernel_grid, project_model
from .riesz import (GramFactor, SubspaceSystem, embedding_norm,
                    extract_critical_subset, uniform_minimality)
from .weights import Weight, classify_weight, p0_norm_check

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
