"""lipsurf: open Lipschitz surfaces in site percolation.

Construction and verification toolkit: deterministic virtual percolation
fields, admissible-path reachability with box certificates, the random
surface and minimal local covers built from it, closed-form tail bounds
with explicit constants, a dominating branching random walk, brute-force
oracles, and a Monte Carlo harness that tests every bound empirically.
"""

__version__ = "0.1.0"

from .lattice import (BoxRegion, Column, ExplicitConfig, Field, PercolationField,
                      Site, count_l1_sphere, height, radial)
from .reach import Budget, StepSet, floor_reach_sandwich, reach_masks
from .surface import (Cert, LocalCoverResult, SurfacePatch, SurfaceReport,
                      build_surface, climb_set, minimal_cover,
                      surface_from_covers, verify_surface)
from .bounds import (HypothesisError, constants_summary, geometric_mgf,
                     minimize_offspring_laplace, offspring_laplace,
                     path_sum_bound, prefactor, spread_rate, spread_tail_bound,
                     step_count, subcritical_threshold, surface_tail_bound,
                     tail_rate)
from .brw import OffspringLaw, brw_tables
from .oracle import (NoCoverInBox, PathEnumeration, all_local_covers,
                     attained_spread, cover_fixed_point, enum_paths,
                     exact_event_prob, partial_expected_visits, path_reach,
                     step_vectors, walk_reach)
from .harness import (BudgetExceededError, ConfigError, Experiment, TailCurve,
                      TailRow, brw_rows, cover_tail_curve, equivariance_check,
                      existence_curve, experiment_from_config,
                      monotonicity_check, run_experiment, spread_tail_curve,
                      surface_tail_curve, surface_validity)
from .stats import wilson_interval
