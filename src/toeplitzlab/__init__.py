"""Lazy Toeplitz arrays over residually finite towers, with exact checks.

The package builds {0,1}-arrays over a nested chain of finite-index
subgroups, evaluates coordinates lazily, and verifies the finite identities
the construction promises: period-set equalities, refinement containments,
counting bounds, and certified density/measure enclosures, all in exact
rational arithmetic.
"""

import importlib

# public name -> its submodule, imported on first use of one of its names
_EXPORTS = {name: f"{__name__}.{module}" for module, names in (
    ("budgets", "Budget"),
    ("cells", "corollary_chain mu_zero_set parent_cells verify_refinement"),
    ("density", "d_enumeration d_product d_recursion density_methods "
                "exp_enclosure regularity_verdict"),
    ("errors", "BudgetExceeded CountMismatch DepthExceeded DoubledOne "
               "EmptySlot InconclusiveTail InvalidIndex NotInDomain "
               "ParityError UnknownCheck"),
    ("factor", "FiberProfile OdometerPoint fiber_profile pi_of_orbit"),
    ("measures", "PeriodicMeasure a_counts an_det_check limit_01 "
                 "mu_cylinder parse_pattern"),
    ("periods", "invariant_shift partitions_c_check per_eq_check per_set"),
    ("presets", "PRESET_DEPTH preset_config preset_names"),
    ("result", "CheckResult SuiteReport"),
    ("skeleton", "ToeplitzSkeleton Undefined build_skeleton j_set "
                 "j_set_recursive j_size load_skeleton"),
    ("tower", "GenericTower IntegerLatticeTower IntegerLineTower "
              "KIND_GENERIC KIND_LATTICE KIND_LINE STYLE_CENTERED "
              "STYLE_NONNEG TAIL_DIVERGENT TAIL_GEOMETRIC TailDecl "
              "TowerConfig build_tower validate_tower"),
    ("verify", "ALIASES REGISTRY_NAMES good_bound good_set "
               "registry_self_test run_all run_check zero_mass_closed_form "
               "zero_mass_lower_bound"),
    ("window", "SymbolWindow materialize_window per_masks window_values"),
) for name in names.split()}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)


__version__ = "0.1.0"
