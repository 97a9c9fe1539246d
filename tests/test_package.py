import importlib
import os
import subprocess
import sys

import pytest

import entropy_engine

# The names the package root exports, by defining module.
EXPORTED = {
    "constants": [
        "AdditiveConstants", "SpaceNode", "StateSpaceGraph",
        "check_entropy_offset_criterion", "check_no_sinks",
        "compute_D", "compute_E", "compute_F", "detect_gap", "graph_from_json",
        "solve_additive_constants",
    ],
    "entropy": [
        "CalibrationResult", "EntropyTable", "calibrate_multiplicative",
        "compound_entropy", "construct_entropy", "entropy_table_csv",
        "find_calibrators", "fit_affine", "verify_entropy_principle",
    ],
    "errors": ["EngineError"],
    "relation": [
        "EQUIVALENT", "INCOMPARABLE", "STRICTLY_FOLLOWS", "STRICTLY_PRECEDES",
        "EpsilonFamily", "OracleRelation", "Relation", "accessible_signed",
        "build_relation", "check_comparison_hypothesis", "check_stability",
        "classify", "close", "relation_from_json", "run_axiom_scan",
    ],
    "simple": [
        "AdiabatSurface", "Box", "SimpleSystemModel", "StatePoint",
        "check_convexity", "check_lipschitz", "check_nesting",
        "integrate_adiabat", "model_from_spec", "monatomic_ideal_gas", "point",
        "pressure_consistency", "sqrt_singularity_model", "tabulated_model",
        "van_der_waals_gas",
    ],
    "states": ["CompoundState", "StateSpace", "compound", "make_space", "single"],
    "thermal": [
        "ThermalJoin", "check_energy_flow", "check_transversality",
        "check_zeroth_law", "in_thermal_equilibrium", "isotherm_state",
        "temperature", "thermal_split",
    ],
}


def test_all_lists_the_exported_names():
    names = [name for names in EXPORTED.values() for name in names]
    assert sorted(entropy_engine.__all__) == sorted(names)


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_each_name_resolves_to_its_defining_module_object(module):
    mod = importlib.import_module("entropy_engine." + module)
    for name in EXPORTED[module]:
        assert getattr(entropy_engine, name) is getattr(mod, name), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from entropy_engine import *", namespace)
    for name in entropy_engine.__all__:
        assert namespace[name] is getattr(entropy_engine, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        entropy_engine.no_such_name
    with pytest.raises(ImportError):
        exec("from entropy_engine import no_such_name", {})


def test_submodules_import_from_the_package_root():
    from entropy_engine import cli, pipeline
    assert cli.main is importlib.import_module("entropy_engine.cli").main
    assert pipeline.run_pipeline is importlib.import_module(
        "entropy_engine.pipeline").run_pipeline


def test_importing_the_package_imports_no_layer():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(entropy_engine.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, entropy_engine; print(sorted(n for n in sys.modules "
         "if n.startswith('entropy_engine.')))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_and_pipeline_import_without_dataclasses():
    # `import dataclasses` costs every CLI process several milliseconds
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(entropy_engine.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, entropy_engine.cli, entropy_engine.pipeline; "
         "print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
