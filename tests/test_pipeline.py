import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import entropy_engine
from entropy_engine.cli import main
from entropy_engine.errors import InputFormatError
from entropy_engine.pipeline import load_pipeline_spec, run_pipeline

CHAIN_RELATION = {
    "spaces": [{"id": "G", "composition": ["1"], "states": ["x", "y", "z"]}],
    "facts": [
        [[{"lambda": "1", "space": "G", "state": "x"}],
         [{"lambda": "1", "space": "G", "state": "y"}]],
        [[{"lambda": "1", "space": "G", "state": "y"}],
         [{"lambda": "1", "space": "G", "state": "z"}]],
    ],
    "lambda_grid": ["1/2", "1"],
}


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def base_spec(**extra):
    doc = {
        "schema": "entropy-engine/1",
        "seed": 3,
        "stages": [],
        "options": {"max_parts": 2},
    }
    doc.update(extra)
    return doc


# ----------------------------------------------------------------- loading


def test_empty_stage_list_exits_clean(tmp_path):
    spec_path = write_json(tmp_path / "spec.json", base_spec())
    spec = load_pipeline_spec(spec_path)
    result = run_pipeline(spec, str(tmp_path / "out"))
    assert result.exit_code == 0
    report = json.load(open(tmp_path / "out" / "report.json"))
    assert report["schema"] == "entropy-engine/1"
    assert report["violations"] == []


def test_unknown_stage_rejected(tmp_path):
    spec_path = write_json(tmp_path / "spec.json", base_spec(stages=["fly"]))
    with pytest.raises(InputFormatError):
        load_pipeline_spec(spec_path)


def test_stage_dependency_order_enforced(tmp_path):
    doc = base_spec(stages=["construct_entropy"], relation=CHAIN_RELATION,
                    entropy={"space": "G", "ref_low": "x", "ref_high": "z"})
    spec_path = write_json(tmp_path / "spec.json", doc)
    with pytest.raises(InputFormatError):
        load_pipeline_spec(spec_path)


# ------------------------------------------------------------------ stages


def test_broken_transitivity_is_reported_with_witness(tmp_path):
    # facts loaded raw (no close stage): the transitivity scanner must flag
    # the missing composite fact
    doc = base_spec(stages=["check_axioms"], relation=CHAIN_RELATION)
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    assert result.exit_code == 1
    assert any("transitivity" in v for v in result.report["violations"])


def test_closed_chain_passes_axioms_and_entropy(tmp_path):
    doc = base_spec(
        stages=["close", "check_axioms", "construct_entropy", "verify_principle"],
        relation=CHAIN_RELATION,
        entropy={"space": "G", "ref_low": "x", "ref_high": "z",
                 "resolution": "1"},
    )
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    assert result.exit_code == 0
    csv_text = open(tmp_path / "out" / "entropy_tables.csv").read()
    assert csv_text.splitlines()[0] == "space,state,S,resolution"
    assert len(csv_text.strip().splitlines()) == 4


def _chain_entropy_with_oracle(tmp_path, oracle_values):
    doc = base_spec(
        stages=["close", "construct_entropy"], relation=CHAIN_RELATION,
        entropy={"space": "G", "ref_low": "x", "ref_high": "z",
                 "resolution": "1", "oracle_values": oracle_values},
    )
    spec_path = write_json(tmp_path / "spec.json", doc)
    return run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))


def test_entropy_table_fits_its_own_values_as_oracle(tmp_path):
    result = _chain_entropy_with_oracle(tmp_path, {"x": "0", "y": "0", "z": "1"})
    assert result.exit_code == 0
    fit = result.report["reports"]["construct_entropy"]["oracle_fit"]
    assert (fit["a"], fit["max_residual"]) == (1, 0)


def test_reversed_oracle_is_a_violation(tmp_path):
    result = _chain_entropy_with_oracle(tmp_path, {"x": "1", "y": "0", "z": "0"})
    assert result.exit_code == 1
    assert result.report["reports"]["construct_entropy"]["oracle_fit"]["a"] <= 0
    assert any(v.startswith("entropy table deviates from its oracle")
               for v in result.report["violations"])


def test_ch_stage_reports_witness_for_split_chains(tmp_path):
    doc = base_spec(stages=["close", "check_ch"], relation={
        "spaces": [{"id": "G", "composition": ["1"],
                    "states": ["a", "b", "c", "d"]}],
        "facts": [
            [[{"lambda": "1", "space": "G", "state": "a"}],
             [{"lambda": "1", "space": "G", "state": "b"}]],
            [[{"lambda": "1", "space": "G", "state": "c"}],
             [{"lambda": "1", "space": "G", "state": "d"}]],
        ],
        "lambda_grid": ["1"],
    })
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    assert result.exit_code == 1
    assert result.report["reports"]["check_ch"]["holds"] is False


def test_simple_and_thermal_suites_run_clean(tmp_path):
    doc = base_spec(
        stages=["simple_system_suite", "thermal_suite"],
        models={
            "gas": {"type": "ideal_gas", "moles": "1"},
            "gas2": {"type": "ideal_gas", "moles": "2"},
        },
        simple_system={"model": "gas", "pairs": 8, "lipschitz_samples": 50},
        thermal={
            "left": "gas", "right": "gas2",
            "experiments": [{"U": 6.0, "V1": [1.0], "V2": [1.0]}],
            "flow_checks": 5,
            "isotherm": {"model": "gas", "T": 2.0,
                         "v_grid": [1.0, 2.0, 3.0]},
        },
    )
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    assert result.exit_code == 0, result.report["violations"]
    exp = result.report["reports"]["thermal_suite"]["experiments"][0]
    assert abs(exp["U1"] - 2.0) < 1e-8
    assert os.path.exists(tmp_path / "out" / "adiabat_samples.csv")
    assert os.path.exists(tmp_path / "out" / "isotherm_samples.csv")


def test_failed_split_keeps_the_rest_of_the_thermal_suite(tmp_path):
    # the maximizer of this split lies on the admissible boundary
    doc = base_spec(
        stages=["thermal_suite"],
        models={"gas3": {"type": "ideal_gas", "moles": "3"},
                "gas2": GASES["gas2"]},
        thermal={"left": "gas3", "right": "gas2",
                 "experiments": [{"U": 16.79, "V1": [1.0], "V2": [1.0]},
                                 {"U": 6.0, "V1": [1.0], "V2": [1.0]}],
                 "flow_checks": 3, "zeroth_triples": 2,
                 "isotherm": {"model": "gas2", "T": 2.0, "v_grid": [1.0]}},
    )
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    assert result.exit_code == 1
    suite = result.report["reports"]["thermal_suite"]
    failed, split = suite["experiments"]
    assert failed["U"] == 16.79 and "boundary" in failed["error"]
    assert abs(split["U1"] - 3.6) < 1e-8
    assert suite["flow_checks"] == 3 and suite["zeroth_law"]["checked"] > 0
    assert suite["transversality_found"] and suite["isotherm_samples"] == 1
    assert result.report["violations"] == [
        "thermal experiment at U=16.79: %s" % failed["error"]]


def test_adversarial_model_fails_the_simple_suite(tmp_path):
    doc = base_spec(
        stages=["simple_system_suite"],
        models={"adv": {"type": "sqrt_singularity"}},
        simple_system={"model": "adv", "pairs": 0, "lipschitz_samples": 100},
    )
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    assert result.exit_code == 1


def test_calibration_suite_emits_matrices_and_constants(tmp_path):
    graph = {
        "spaces": [
            {"id": "s1", "composition": ["1"],
             "entropy": {"a": "0", "b": "7"}},
            {"id": "s2", "composition": ["1"],
             "entropy": {"c": "5", "d": "10"}},
        ],
        "facts": [
            [[["s1", "a"]], [["s2", "c"]]],
            [[["s2", "d"]], [["s1", "b"]]],
        ],
        "max_chain": 4,
    }
    doc = base_spec(stages=["calibration_suite"], calibration=graph)
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    assert result.exit_code == 0
    rep = result.report["reports"]["calibration_suite"]
    assert rep["no_sinks"] is True
    assert rep["matrices"]["F"]["s1->s2"] == 5.0
    assert rep["gaps"] == {"s1|s2": 2.0}
    csv_text = open(tmp_path / "out" / "def_matrices.csv").read()
    assert csv_text.splitlines()[0] == "from,to,D,E,F"


def test_infinite_entries_use_string_sentinel(tmp_path):
    graph = {
        "spaces": [
            {"id": "s1", "composition": ["1"], "entropy": {"a": "0"}},
            {"id": "s2", "composition": ["1"], "entropy": {"c": "0"}},
        ],
        "facts": [[[["s1", "a"]], [["s2", "c"]]]],
    }
    doc = base_spec(stages=["calibration_suite"], calibration=graph)
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    text = open(tmp_path / "out" / "report.json").read()
    parsed = json.loads(text)
    value = parsed["reports"]["calibration_suite"]["matrices"]["D"]["s2->s1"]
    assert value == "inf"
    assert isinstance(value, str)


# -------------------------------------------------------------- determinism


def test_identical_spec_and_seed_give_identical_bundles(tmp_path):
    doc = base_spec(
        stages=["simple_system_suite"],
        models={"gas": {"type": "ideal_gas"}},
        simple_system={"model": "gas", "pairs": 5, "lipschitz_samples": 40},
    )
    spec_path = write_json(tmp_path / "spec.json", doc)
    spec = load_pipeline_spec(spec_path)
    run_pipeline(spec, str(tmp_path / "out1"))
    run_pipeline(spec, str(tmp_path / "out2"))
    for name in ("report.json", "adiabat_samples.csv"):
        b1 = open(tmp_path / "out1" / name, "rb").read()
        b2 = open(tmp_path / "out2" / name, "rb").read()
        assert b1 == b2


def test_seed_override_changes_probes(tmp_path):
    doc = base_spec(
        stages=["simple_system_suite"],
        models={"gas": {"type": "ideal_gas"}},
        simple_system={"model": "gas", "pairs": 3, "lipschitz_samples": 20},
    )
    spec_path = write_json(tmp_path / "spec.json", doc)
    spec = load_pipeline_spec(spec_path)
    r1 = run_pipeline(spec, str(tmp_path / "o1"), seed=1)
    r2 = run_pipeline(spec, str(tmp_path / "o2"), seed=2)
    assert r1.report["seed"] == 1 and r2.report["seed"] == 2


# --------------------------------------------------------------------- CLI


def test_cli_run_and_exit_codes(tmp_path):
    rel_path = write_json(tmp_path / "rel.json", CHAIN_RELATION)
    doc = base_spec(stages=["close", "check_axioms"], relation="rel.json")
    spec_path = write_json(tmp_path / "spec.json", doc)
    code = main(["run", spec_path, "--out", str(tmp_path / "out")])
    assert code == 0


def test_cli_validate_each_kind(tmp_path, capsys):
    rel_path = write_json(tmp_path / "rel.json", CHAIN_RELATION)
    assert main(["validate", rel_path]) == 0
    model_path = write_json(tmp_path / "model.json", {"type": "ideal_gas"})
    assert main(["validate", model_path]) == 0
    spec_path = write_json(tmp_path / "spec.json", base_spec())
    assert main(["validate", spec_path]) == 0


def test_cli_parse_error_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"spaces": [,]}')
    code = main(["validate", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("doc", [
    ["spaces"], {"spaces": {"a": 1}}, {"spaces": [5]}, {"spaces": "ab"},
    {"type": "tabulated", "u_grid": "ab", "v_grid": [1, 2], "pressure_grid": 5},
], ids=["list", "spaces-object", "spaces-of-numbers", "spaces-string",
        "tabulated-grid-of-letters"])
def test_cli_validate_odd_document_is_input_error(tmp_path, doc):
    assert main(["validate", write_json(tmp_path / "odd.json", doc)]) == 2


def test_cli_run_missing_file_is_input_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_cli_stage_filter(tmp_path):
    rel_path = write_json(tmp_path / "rel.json", CHAIN_RELATION)
    doc = base_spec(stages=["close", "check_axioms"], relation="rel.json")
    spec_path = write_json(tmp_path / "spec.json", doc)
    code = main([
        "run", spec_path, "--out", str(tmp_path / "out"), "--stage", "close",
    ])
    assert code == 0
    report = json.load(open(tmp_path / "out" / "report.json"))
    assert report["stages"] == ["close"]


def test_cli_out_dir_from_environment(tmp_path, monkeypatch):
    rel_path = write_json(tmp_path / "rel.json", CHAIN_RELATION)
    doc = base_spec(stages=["close"], relation="rel.json")
    spec_path = write_json(tmp_path / "spec.json", doc)
    monkeypatch.setenv("ENTROPY_ENGINE_OUT", str(tmp_path / "envout"))
    assert main(["run", spec_path]) == 0
    assert os.path.exists(tmp_path / "envout" / "report.json")


CALIBRATION_GRAPH = {
    "spaces": [
        {"id": "s1", "composition": ["1"], "entropy": {"a": "0"}},
        {"id": "s2", "composition": ["1"], "entropy": {"c": "5"}},
    ],
    "facts": [[[["s1", "a"]], [["s2", "c"]]]],
}


@pytest.mark.parametrize("change", [
    {"facts": [[[["Q", "a"]], [["s2", "c"]]]]},
    {"facts": [[[["s1", "zz"]], [["s2", "c"]]]]},
    {"max_chain": "four"},
    {"max_chain": 0},
    {"catalysts": ["Q"]},
    {"facts": [[[["s1", "a"]]]]},
    {"spaces": CALIBRATION_GRAPH["spaces"] + [{"id": "s3", "entropy": {}}]},
], ids=["undeclared-space", "undeclared-state", "max-chain-word",
        "max-chain-zero", "undeclared-catalyst", "one-sided-fact",
        "space-without-composition"])
def test_cli_bad_calibration_graph_is_input_error(tmp_path, change):
    graph = dict(CALIBRATION_GRAPH, **change)
    graph_path = write_json(tmp_path / "graph.json", graph)
    spec_path = write_json(
        tmp_path / "spec.json",
        base_spec(stages=["calibration_suite"], calibration="graph.json"),
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(entropy_engine.__file__)))
    for args in (["validate", graph_path],
                 ["run", spec_path, "--out", str(tmp_path / "out")]):
        proc = subprocess.run(
            [sys.executable, "-m", "entropy_engine.cli"] + args,
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2, (args, proc.stderr)
        assert "Traceback" not in proc.stderr


def run_cli(args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(entropy_engine.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "entropy_engine.cli"] + args,
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_cli_one_sided_relation_fact_is_input_error(tmp_path):
    relation = dict(CHAIN_RELATION, facts=[CHAIN_RELATION["facts"][0][:1]])
    rel_path = write_json(tmp_path / "rel.json", relation)
    spec_path = write_json(tmp_path / "spec.json",
                           base_spec(stages=["close"], relation="rel.json"))
    for args in (["validate", rel_path],
                 ["run", spec_path, "--out", str(tmp_path / "out")]):
        proc = run_cli(args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert "Traceback" not in proc.stderr


ENTROPY = {"space": "G", "ref_low": "x", "ref_high": "z"}


@pytest.mark.parametrize("change", [
    {"entropy": {"ref_low": "x", "ref_high": "z"}},
    {"options": {"max_parts": "three"}},
    {"entropy": dict(ENTROPY, resolution="0")},
], ids=["entropy-without-space", "max-parts-word", "zero-resolution"])
def test_cli_bad_relation_spec_is_input_error(tmp_path, change):
    write_json(tmp_path / "rel.json", CHAIN_RELATION)
    doc = base_spec(stages=["close", "construct_entropy"], relation="rel.json",
                    entropy=ENTROPY)
    doc.update(change)
    spec_path = write_json(tmp_path / "spec.json", doc)
    for args in (["validate", spec_path],
                 ["run", spec_path, "--out", str(tmp_path / "out")]):
        proc = run_cli(args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert "Traceback" not in proc.stderr


GASES = {"gas": {"type": "ideal_gas", "moles": "1"},
         "gas2": {"type": "ideal_gas", "moles": "2"}}
THERMAL = {"left": "gas", "right": "gas2",
           "experiments": [{"U": 6.0, "V1": [1.0], "V2": [1.0]}]}

# case id -> (spec fields, instance files written beside the spec)
BAD_SPECS = {
    "simple-system-without-model": (
        {"stages": ["simple_system_suite"], "models": GASES,
         "simple_system": {"pairs": 1}}, {}),
    "simple-suite-without-section": (
        {"stages": ["simple_system_suite"], "models": GASES}, {}),
    "pairs-word": (
        {"stages": ["simple_system_suite"], "models": GASES,
         "simple_system": {"model": "gas", "pairs": "many"}}, {}),
    "experiment-without-v1": (
        {"stages": ["thermal_suite"], "models": GASES,
         "thermal": dict(THERMAL, experiments=[{"U": 6.0, "V2": [1.0]}])}, {}),
    "models-list": ({"stages": [], "models": ["g"]}, {}),
    "relation-space-without-composition": (
        {"stages": ["close"], "relation": "rel.json"},
        {"rel.json": dict(CHAIN_RELATION, spaces=[
            {"id": "G", "states": ["x", "y", "z"]}])}),
    "relation-not-json": (
        {"stages": ["close"], "relation": "rel.json"}, {"rel.json": "{oops"}),
    "relation-file-missing": ({"stages": ["close"], "relation": "rel.json"}, {}),
    "calibration-without-section": ({"stages": ["calibration_suite"]}, {}),
    "thermal-undeclared-model": (
        {"stages": ["thermal_suite"], "models": GASES,
         "thermal": dict(THERMAL, right="steam")}, {}),
    "experiment-v1-two-coordinates": (
        {"stages": ["thermal_suite"], "models": GASES,
         "thermal": dict(THERMAL, experiments=[
             {"U": 6.0, "V1": [1.0, 7.0], "V2": [1.0]}])}, {}),
    # work coordinates outside the named model's open V range
    "experiment-v1-below-vdw-range": (
        {"stages": ["thermal_suite"],
         "models": {"vdw": {"type": "van_der_waals"}, "gas": GASES["gas"]},
         "thermal": {"left": "vdw", "right": "gas",
                     "experiments": [{"U": 6.0, "V1": [0.01], "V2": [1.0]}]}},
        {}),
    "experiment-v2-above-gas-range": (
        {"stages": ["thermal_suite"],
         "models": {"vdw": {"type": "van_der_waals"}, "gas": GASES["gas"]},
         "thermal": {"left": "vdw", "right": "gas",
                     "experiments": [{"U": 6.0, "V1": [1.0], "V2": [50.0]}]}},
        {}),
    "experiment-u-without-admissible-partition": (
        {"stages": ["thermal_suite"],
         "models": {"vdw": {"type": "van_der_waals"}, "gas": GASES["gas"]},
         "thermal": {"left": "gas", "right": "vdw",
                     "experiments": [{"U": 18.95, "V1": [1.0], "V2": [1.0]}]}},
        {}),
    "isotherm-v-grid-above-gas-range": (
        {"stages": ["thermal_suite"], "models": GASES,
         "thermal": dict(THERMAL, isotherm={"model": "gas", "T": 2.0,
                                            "v_grid": [1.0, 7.0]})}, {}),
    # the CH scan queries accessible(), which refuses an unclosed relation
    "ch-without-close": (
        {"stages": ["check_ch"], "relation": dict(
            CHAIN_RELATION, facts=CHAIN_RELATION["facts"][:1], spaces=[
                {"id": "G", "composition": ["1"], "states": ["x", "y"]}])},
        {}),
    "entropy-undeclared-space": (
        {"stages": ["close", "construct_entropy"], "relation": CHAIN_RELATION,
         "entropy": {"space": "Q", "ref_low": "x", "ref_high": "z"}}, {}),
    "entropy-undeclared-state": (
        {"stages": ["close", "construct_entropy"], "relation": CHAIN_RELATION,
         "entropy": {"space": "G", "ref_low": "x", "ref_high": "w"}}, {}),
}
TABULATED = {"type": "tabulated", "u_grid": [1, 2, 3], "v_grid": [1, 2],
             "pressure_grid": [[1, 1], [1, 1], [1, 1]]}
# models that cannot be evaluated on their whole domain
BAD_MODELS = {
    "vdw-b-above-v-floor": {"type": "van_der_waals", "b": 5},
    "vdw-negative-a": {"type": "van_der_waals", "a": -50},
    "gas-u-bounds-reversed": {"type": "ideal_gas",
                              "domain": {"U": [10, 0.5], "V": [[5, 0.5]]}},
    "gas-infinite-u-bound": {"type": "ideal_gas",
                             "domain": {"U": [0.5, math.inf], "V": [[0.5, 5]]}},
    "gas-negative-v-floor": {"type": "ideal_gas",
                             "domain": {"U": [0.5, 10], "V": [[-1, 5]]}},
    "gas-infinite-moles": {"type": "ideal_gas", "moles": math.inf},
    "tabulated-ragged-pressure": dict(TABULATED, pressure_grid=[[1, 1], [1]]),
    "tabulated-word-in-entropy": dict(
        TABULATED, entropy_grid=[[1, 1], [1, "hot"], [1, 1]]),
    "tabulated-one-point-v-grid": dict(
        TABULATED, v_grid=[1], pressure_grid=[[1], [1], [1]]),
    "tabulated-u-grid-not-increasing": dict(TABULATED, u_grid=[1, 3, 2]),
}
for name, model in BAD_MODELS.items():
    BAD_SPECS["model-" + name] = (
        {"stages": ["simple_system_suite"], "models": {"m": model},
         "simple_system": {"model": "m", "pairs": 1, "lipschitz_samples": 2}},
        {})


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_cli_bad_spec_is_input_error(tmp_path, case):
    fields, files = BAD_SPECS[case]
    for name, doc in files.items():
        if isinstance(doc, str):
            (tmp_path / name).write_text(doc)
        else:
            write_json(tmp_path / name, doc)
    spec_path = write_json(tmp_path / "spec.json", base_spec(**fields))
    for args in (["validate", spec_path],
                 ["run", spec_path, "--out", str(tmp_path / "out")]):
        proc = run_cli(args)
        assert proc.returncode == 2, (args, proc.stdout, proc.stderr)
        assert "Traceback" not in proc.stderr


# A small spec that reads every section; every count is tiny.
SMALL_SPEC = base_spec(
    stages=["close", "check_axioms", "check_ch", "construct_entropy",
            "verify_principle", "simple_system_suite", "thermal_suite",
            "calibration_suite"],
    relation=dict(CHAIN_RELATION, lambda_grid=["1"]),
    entropy={"space": "G", "ref_low": "x", "ref_high": "z", "resolution": "1/2"},
    models=GASES,
    simple_system={"model": "gas", "pairs": 1, "lipschitz_samples": 2},
    thermal=dict(THERMAL, flow_checks=1, zeroth_triples=1,
                 isotherm={"model": "gas", "T": 2.0, "v_grid": [1.0, 2.0]}),
    calibration=CALIBRATION_GRAPH,
)


def _field_paths(doc, prefix=()):
    """Paths to every field of the spec, through objects and lists of objects."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = [(i, v) for i, v in enumerate(doc) if isinstance(v, dict)]
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


DROP = object()


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(sorted(_field_paths(SMALL_SPEC), key=repr)),
       value=st.sampled_from([DROP, "x", 1.5, [1], None, -1]))
def test_mutated_spec_never_raises_and_validate_agrees_with_run(
        tmp_path_factory, path, value):
    doc = json.loads(json.dumps(SMALL_SPEC))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    work = tmp_path_factory.mktemp("mutated")
    spec_path = write_json(work / "spec.json", doc)
    validated = main(["validate", spec_path])
    ran = main(["run", spec_path, "--out", str(work / "out")])
    assert (validated == 2) == (ran == 2), (path, value, validated, ran)
