"""Order-theoretic construction of thermodynamic entropy.

Builds and verifies finite adiabatic-accessibility relations, constructs the
canonical entropy function from reference states, realizes simple systems
numerically (adiabat surfaces, nesting of forward sectors, thermal
equilibrium, temperature), and calibrates multiplicative and additive entropy
constants across systems.

Each layer module is imported on first use of one of its names (PEP 562), so
`import entropy_engine` compiles no layer.
"""

import importlib

_EXPORTS = {
    "constants": (
        "AdditiveConstants", "SpaceNode", "StateSpaceGraph",
        "check_entropy_offset_criterion", "check_no_sinks",
        "compute_D", "compute_E", "compute_F", "detect_gap", "graph_from_json",
        "solve_additive_constants",
    ),
    "entropy": (
        "CalibrationResult", "EntropyTable", "calibrate_multiplicative",
        "compound_entropy", "construct_entropy", "entropy_table_csv",
        "find_calibrators", "fit_affine", "verify_entropy_principle",
    ),
    "errors": ("EngineError",),
    "relation": (
        "EQUIVALENT", "INCOMPARABLE", "STRICTLY_FOLLOWS", "STRICTLY_PRECEDES",
        "EpsilonFamily", "OracleRelation", "Relation",
        "build_relation", "check_comparison_hypothesis", "check_stability",
        "classify", "close", "relation_from_json", "run_axiom_scan",
    ),
    "simple": (
        "AdiabatSurface", "Box", "SimpleSystemModel", "StatePoint",
        "check_convexity", "check_lipschitz", "check_nesting",
        "integrate_adiabat", "model_from_spec", "monatomic_ideal_gas", "point",
        "pressure_consistency", "sqrt_singularity_model", "tabulated_model",
        "van_der_waals_gas",
    ),
    "states": ("CompoundState", "StateSpace", "compound", "make_space", "single"),
    "thermal": (
        "ThermalJoin", "check_energy_flow", "check_transversality",
        "check_zeroth_law", "in_thermal_equilibrium", "isotherm_state",
        "temperature", "thermal_split",
    ),
}

# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        # a submodule such as `cli` is not exported here; raising lets
        # `from entropy_engine import cli` fall back to importing it
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
