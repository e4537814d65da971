"""Lazy Toeplitz arrays over residually finite towers, with exact checks.

The package builds {0,1}-arrays over a nested chain of finite-index
subgroups, evaluates coordinates lazily, and verifies the finite identities
the construction promises: period-set equalities, refinement containments,
counting bounds, and certified density/measure enclosures, all in exact
rational arithmetic.
"""

from .budgets import Budget
from .cells import (corollary_chain, mu_zero_set, parent_cells,
                    verify_refinement)
from .density import (d_enumeration, d_product, d_recursion, density_methods,
                      exp_enclosure, regularity_verdict)
from .errors import (BudgetExceeded, CountMismatch, DepthExceeded,
                     DoubledOne, EmptySlot, InconclusiveTail, InvalidIndex,
                     NotInDomain, ParityError, UnknownCheck)
from .factor import FiberProfile, OdometerPoint, fiber_profile, pi_of_orbit
from .measures import (PeriodicMeasure, a_counts, an_det_check, limit_01,
                       mu_cylinder, parse_pattern)
from .periods import invariant_shift, partitions_c_check, per_eq_check, per_set
from .presets import PRESET_DEPTH, preset_config, preset_names
from .result import CheckResult, SuiteReport
from .skeleton import (ToeplitzSkeleton, Undefined, build_skeleton, j_set,
                       j_set_recursive, j_size, load_skeleton)
from .tower import (GenericTower, IntegerLatticeTower, IntegerLineTower,
                    KIND_GENERIC, KIND_LATTICE, KIND_LINE, STYLE_CENTERED,
                    STYLE_NONNEG, TAIL_DIVERGENT, TAIL_GEOMETRIC,
                    TailDecl, TowerConfig, build_tower, validate_tower)
from .verify import (ALIASES, REGISTRY_NAMES, good_bound, good_set,
                     registry_self_test, run_all, run_check,
                     zero_mass_closed_form, zero_mass_lower_bound)
from .window import (SymbolWindow, materialize_window, per_masks,
                     window_values)

__version__ = "0.1.0"
