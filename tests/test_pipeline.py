import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import entropy_engine
from entropy_engine.cli import main
from entropy_engine.errors import InputFormatError
from entropy_engine.pipeline import (
    STAGE_FUNCS, _jsonable, emit_report, load_pipeline_spec, run_pipeline)
from entropy_engine.simple import point
from entropy_engine.spec import STAGE_TABLE
from entropy_engine.states import compound, single

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


def test_stage_listed_twice_rejected(tmp_path):
    rel_path = write_json(tmp_path / "rel.json", CHAIN_RELATION)
    doc = base_spec(stages=["close", "check_axioms", "check_axioms"],
                    relation="rel.json")
    spec_path = write_json(tmp_path / "spec.json", doc)
    with pytest.raises(InputFormatError, match="'check_axioms' is listed twice"):
        load_pipeline_spec(spec_path)
    assert main(["validate", spec_path]) == 2
    out = tmp_path / "out"
    assert main(["run", spec_path, "--out", str(out)]) == 2
    assert not out.exists()


# ------------------------------------------------------------------ stages


def test_broken_transitivity_is_reported_with_witness(tmp_path):
    # facts loaded raw (no close stage): the transitivity scanner must flag
    # the missing composite fact
    doc = base_spec(stages=["check_axioms"], relation=CHAIN_RELATION)
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    assert result.exit_code == 1
    assert any("transitivity" in v for v in result.report["violations"])
    for rep in result.report["reports"]["check_axioms"].values():
        for shown in rep["violations"]:
            json.loads(shown)


def test_stability_violation_is_shown_as_json(tmp_path):
    def part(lam, state):
        return {"lambda": lam, "space": "G", "state": state}

    # (y, x/2) -> (x, y/2) is declared, but the limit fact y -> x is not
    premise = [[part("1", "y"), part("1/2", "x")], [part("1", "x"), part("1/2", "y")]]
    family = {"X": [part("1", "y")], "Y": [part("1", "x")], "Z0": [part("1", "x")],
              "Z1": [part("1", "y")], "epsilons": ["1/2"]}
    relation = dict(CHAIN_RELATION, facts=CHAIN_RELATION["facts"] + [premise],
                    epsilon_families=[family])
    doc = base_spec(stages=["close", "check_axioms"], relation=relation)
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    assert result.exit_code == 1
    want = {"X": {"parts": [["G", "y", "1"]]}, "Y": {"parts": [["G", "x", "1"]]},
            "Z0": {"parts": [["G", "x", "1"]]}, "Z1": {"parts": [["G", "y", "1"]]},
            "epsilons": ["1/2"]}
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    shown = report["reports"]["check_axioms"]["stability"]["violations"]
    assert [json.loads(v) for v in shown] == [want]
    (line,) = report["violations"]
    assert line.startswith("stability: ")
    assert json.loads(line[len("stability: "):]) == want


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


@pytest.mark.parametrize("oracle, a", [
    ({"x": "0", "y": "1e-400", "z": "2e-400"}, "inf"),
    ({"x": "0", "y": "1e400", "z": "2e400"}, 0.0),
])
def test_oracle_fit_past_the_float_range_is_reported(tmp_path, oracle, a):
    # the fit is exact; only its reported slope leaves the float range
    result = _chain_entropy_with_oracle(tmp_path, oracle)
    assert result.exit_code == 0
    assert result.report["reports"]["construct_entropy"]["oracle_fit"]["a"] == a


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
    assert result.report["reports"]["check_ch"]["witness"] == [
        {"parts": [["G", "a", "1"]]}, {"parts": [["G", "c", "1"]]}]


def test_jsonable_renders_records_as_field_dicts():
    assert _jsonable(point(1, 2)) == {"U": 1.0, "V": 2.0}
    half = Fraction(1, 2)
    witness = (single("G", "x"), compound([(half, "G", "z"), (half, "G", "y")]))
    assert _jsonable(witness) == [
        {"parts": [["G", "x", "1"]]},
        {"parts": [["G", "y", "1/2"], ["G", "z", "1/2"]]},
    ]


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


GAP_GRAPH = {
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


def test_calibration_suite_emits_matrices_and_constants(tmp_path):
    doc = base_spec(stages=["calibration_suite"], calibration=GAP_GRAPH)
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    assert result.exit_code == 0
    rep = result.report["reports"]["calibration_suite"]
    assert rep["no_sinks"] is True
    assert rep["matrices"]["F"]["s1->s2"] == 5.0
    assert rep["gaps"] == {"s1|s2": 2.0}
    csv_text = open(tmp_path / "out" / "def_matrices.csv").read()
    assert csv_text.splitlines()[0] == "from,to,D,E,F"


def _cal_space(sid, **entropy):
    return {"id": sid, "composition": ["1"], "entropy": entropy}


def test_def_matrices_csv_quotes_space_ids(tmp_path):
    # plain ids keep their rows; a comma or a quote in an id is quoted
    plain = base_spec(stages=["calibration_suite"], calibration=GAP_GRAPH)
    run_pipeline(load_pipeline_spec(write_json(tmp_path / "plain.json", plain)),
                 str(tmp_path / "plain"))
    assert (tmp_path / "plain" / "def_matrices.csv").read_bytes() == (
        b"from,to,D,E,F\ns1,s1,0.0,0.0,0.0\ns1,s2,5.0,5.0,5.0\n"
        b"s2,s1,-3.0,-3.0,-3.0\ns2,s2,0.0,0.0,0.0\n")
    graph = {
        "spaces": [_cal_space("p,q", x="0"), _cal_space('r"s', y="0")],
        "facts": [[[["p,q", "x"]], [['r"s', "y"]]],
                  [[['r"s', "y"]], [["p,q", "x"]]]],
    }
    doc = base_spec(stages=["calibration_suite"], calibration=graph)
    run_pipeline(load_pipeline_spec(write_json(tmp_path / "spec.json", doc)),
                 str(tmp_path / "out"))
    with open(tmp_path / "out" / "def_matrices.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["from", "to", "D", "E", "F"]
    assert [row[:2] for row in rows[1:]] == [
        ["p,q", "p,q"], ["p,q", 'r"s'], ['r"s', "p,q"], ['r"s', 'r"s']]
    assert all(len(row) == 5 for row in rows)


def test_sink_violation_parts_are_json(tmp_path):
    # a -> b -> a loses 1 unit of entropy, and c is reached without a way back
    graph = {
        "spaces": [
            {"id": "a", "composition": ["1"], "entropy": {"p": "1", "r": "0"}},
            {"id": "b", "composition": ["1"], "entropy": {"q": "0"}},
            {"id": "c", "composition": ["1"], "entropy": {"s": "0"}},
        ],
        "facts": [[[["a", "p"]], [["b", "q"]]], [[["b", "q"]], [["a", "r"]]],
                  [[["a", "p"]], [["c", "s"]]]],
    }
    doc = base_spec(stages=["calibration_suite"], calibration=graph)
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    assert result.exit_code == 1
    [violation] = result.report["violations"]
    match = re.fullmatch(r"sink structure: asymmetric (.*?), inequality (.*?), "
                         r"cycle (.*)", violation)
    asymmetric, inequality, cycle = (json.loads(part) for part in match.groups())
    assert ["a", "c", "-2", "inf"] in asymmetric
    assert ["a", "b", "-2", "-1"] in inequality
    assert cycle == [["a", "b"], "-1"]


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


# Text the JSON parser rejects without a JSONDecodeError, and the words the
# one line on stderr must hold.
UNPARSABLE = {
    "deep-nesting": ("[" * 100000 + "]" * 100000, "nested too deeply"),
    "long-integer": ('{"schema": "entropy-engine/1", "seed": %s, "stages": []}'
                     % ("7" * 5000), "digits"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", sorted(UNPARSABLE))
def test_cli_unparsable_json_is_input_error(tmp_path, capsys, case, command):
    text, words = UNPARSABLE[case]
    path = tmp_path / "spec.json"
    path.write_text(text)
    args = [command, str(path)]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert words in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [
    ["spaces"], {"spaces": {"a": 1}}, {"spaces": [5]}, {"spaces": "ab"},
    {"type": "tabulated", "u_grid": "ab", "v_grid": [1, 2], "pressure_grid": 5},
], ids=["list", "spaces-object", "spaces-of-numbers", "spaces-string",
        "tabulated-grid-of-letters"])
def test_cli_validate_odd_document_is_input_error(tmp_path, doc):
    assert main(["validate", write_json(tmp_path / "odd.json", doc)]) == 2


def test_cli_run_missing_file_is_input_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_cli_stage_filter(tmp_path, capsys):
    rel_path = write_json(tmp_path / "rel.json", CHAIN_RELATION)
    doc = base_spec(stages=["close", "check_axioms", "check_ch",
                            "construct_entropy", "verify_principle"],
                    relation="rel.json",
                    entropy={"space": "G", "ref_low": "x", "ref_high": "z"})
    spec_path = write_json(tmp_path / "spec.json", doc)

    def run(*names):
        out = tmp_path / ("out-" + "-".join(names))
        argv = ["run", spec_path, "--out", str(out)]
        for name in names:
            argv += ["--stage", name]
        return main(argv), out / "report.json"

    code, path = run("close")
    assert code == 0
    assert json.load(open(path))["stages"] == ["close"]
    # chosen stages run in spec order; the chain has no midpoint facts, so
    # the comparison hypothesis fails on the closed relation
    code, path = run("check_ch", "close")
    report = json.load(open(path))
    assert code == 1
    assert report["stages"] == ["close", "check_ch"]
    assert report["violations"][0].startswith("comparison hypothesis fails")
    # a name outside the spec, or a stage without the stages it needs, is
    # bad input: exit 2 and no bundle
    for names, message in [
        (["bogus"], "'bogus' is not a stage of the spec"),
        (["check_axioms", "bogus"], "'bogus' is not a stage of the spec"),
        (["check_ch"], "'check_ch' requires 'close'"),
        (["verify_principle"], "'verify_principle' requires 'close'"),
        (["close", "verify_principle"],
         "'verify_principle' requires 'construct_entropy'"),
    ]:
        capsys.readouterr()
        code, path = run(*names)
        assert code == 2, names
        assert message in capsys.readouterr().err
        assert not path.parent.exists()


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
    {"spaces": [
        {"id": "s1", "composition": ["1", "1"], "entropy": {"a": "0"}},
        {"id": "s2", "composition": ["1"], "entropy": {"b": "0"}},
        {"id": "s3", "composition": ["2"], "entropy": {"c": "1"}},
    ], "facts": [[[["s1", "a"], ["s2", "b"]], [["s3", "c"]]]]},
    {"spaces": [
        {"id": "s1", "composition": ["-1"], "entropy": {"a": "0"}},
        {"id": "s2", "composition": ["-1"], "entropy": {"c": "5"}},
    ]},
    # Python's json reads NaN and Infinity
    {"spaces": [
        {"id": "s1", "composition": ["1"], "entropy": {"a": math.nan}},
        {"id": "s2", "composition": ["1"], "entropy": {"c": math.inf}},
    ]},
    {"spaces": [
        {"id": "s1", "composition": [math.inf], "entropy": {"a": "0"}},
        {"id": "s2", "composition": [math.inf], "entropy": {"c": "5"}},
    ]},
    # space ids are strings without "->" or "|", which join them in report
    # keys: (a, b->c) and (a->b, c) would share the key a->b->c
    {"spaces": [_cal_space(1, x="0"), _cal_space("a", y="0")],
     "facts": [[[[1, "x"]], [["a", "y"]]]]},
    {"spaces": [_cal_space("a", s="0"), _cal_space("b->c", s="5"),
                _cal_space("a->b", s="0"), _cal_space("c", s="1")],
     "facts": [[[["a", "s"]], [["b->c", "s"]]], [[["a->b", "s"]], [["c", "s"]]]]},
    {"spaces": [_cal_space("a|b", s="0"), _cal_space("c", s="0")], "facts": []},
    {"spaces": [_cal_space("a", x="1e308"), _cal_space("b", y="-1e308")],
     "facts": [[[["a", "x"]], [["b", "y"]]], [[["b", "y"]], [["a", "x"]]]]},
    {"spaces": [_cal_space("a", x=1e308), _cal_space("b", y=-1e308)],
     "facts": [[[["a", "x"]], [["b", "y"]]], [[["b", "y"]], [["a", "x"]]]]},
], ids=["undeclared-space", "undeclared-state", "max-chain-word",
        "max-chain-zero", "undeclared-catalyst", "one-sided-fact",
        "space-without-composition", "uneven-element-amounts",
        "negative-element-amount", "non-finite-entropy",
        "infinite-element-amount", "integer-space-id", "arrow-in-space-id",
        "bar-in-space-id", "huge-exact-entropy", "huge-float-entropy"])
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


GRAPH_AB = {
    "spaces": [
        {"id": "A", "composition": ["1"], "entropy": {"a": "0"}},
        {"id": "B", "composition": ["1"], "entropy": {"b": "5"}},
    ],
    "facts": [[[["A", "a"]], [["B", "b"]]]],
}


def _space(doc, **change):
    return [dict(doc["spaces"][0], **change)] + doc["spaces"][1:]


# Each string below would read as a list of its characters, and each one-
# character item would be valid: composition "12" as (1, 2), states "xyz" as
# x, y and z, catalysts "AB" as A and B, the fact part "Aa" as ["A", "a"];
# max_chain 2.7 would be truncated to 2.
@pytest.mark.parametrize("kind, change, message", [
    ("relation", {"spaces": _space(CHAIN_RELATION, composition="12")},
     "space 'G' composition must be a list, got '12'"),
    ("relation", {"spaces": _space(CHAIN_RELATION, states="xyz")},
     "space 'G' states must be a list, got 'xyz'"),
    ("relation", {"lambda_grid": "1/2"}, "lambda_grid must be a list, got '1/2'"),
    ("graph", {"spaces": _space(GRAPH_AB, composition="1")},
     "space 'A' composition must be a list, got '1'"),
    ("graph", {"catalysts": "AB"}, "catalysts must be a list, got 'AB'"),
    ("graph", {"facts": [[["Aa"], [["B", "b"]]]]}, "fact side ['Aa'] is not"),
    ("graph", {"max_chain": 2.7}, "max_chain must be an integer, got 2.7"),
], ids=["relation-composition", "relation-states", "relation-lambda-grid",
        "graph-composition", "graph-catalysts", "graph-fact-part",
        "graph-max-chain-float"])
def test_cli_string_or_float_for_a_list_or_integer_is_input_error(
        tmp_path, capsys, kind, change, message):
    if kind == "relation":
        doc, spec = dict(CHAIN_RELATION, **change), {"stages": ["close"],
                                                     "relation": "inst.json"}
    else:
        doc, spec = dict(GRAPH_AB, **change), {"stages": ["calibration_suite"],
                                               "calibration": "inst.json"}
    inst_path = write_json(tmp_path / "inst.json", doc)
    spec_path = write_json(tmp_path / "spec.json", base_spec(**spec))
    for args in (["validate", inst_path],
                 ["run", spec_path, "--out", str(tmp_path / "out")]):
        capsys.readouterr()
        assert main(args) == 2, args
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def run_cli(args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(entropy_engine.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "entropy_engine.cli"] + args,
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("graph, B", [
    ({"spaces": [_cal_space("a", s0="0", s1="-55/3"),
                 _cal_space("b", s0="58/3", s1="0")],
      "facts": [[[["a", "s0"]], [["b", "s0"]]], [[["b", "s1"]], [["a", "s1"]]]]},
     {"a": "0", "b": "-55/3"}),
    ({"spaces": [_cal_space("a", x="0"), _cal_space("b", y="100001/3")],
      "facts": [[[["a", "x"]], [["b", "y"]]], [[["b", "y"]], [["a", "x"]]]]},
     {"a": "0", "b": "-100001/3"}),
    ({"spaces": [{"id": "A", "composition": [0.1], "entropy": {"a": "0"}},
                 {"id": "B", "composition": [0.2], "entropy": {"b": "0"}},
                 {"id": "C", "composition": [0.3], "entropy": {"c": "0"}}],
      "facts": [[[["A", "a"], ["B", "b"]], [["C", "c"]]],
                [[["C", "c"]], [["A", "a"], ["B", "b"]]]]},
     {"A": "0", "B": "0", "C": "0"}),
    ({"spaces": [_cal_space("A", a=0.1), _cal_space("B", b=0.2),
                 _cal_space("C", c=0.3)],
      "facts": [[[["A", "a"]], [["B", "b"]]], [[["B", "b"]], [["C", "c"]]],
                [[["C", "c"]], [["A", "a"]]]]},
     {"A": "0", "B": "-1/10", "C": "-1/5"}),
], ids=["two-way-at-58/3", "equivalence-at-100001/3", "decimal-element-amounts",
        "decimal-entropies"])
def test_cli_exact_round_trip_of_large_weight_has_no_sinks(tmp_path, graph, B):
    # each round trip totals exactly 0, which a float epsilon misread; a
    # float is read at its decimal, where 0.1 + 0.2 == 0.3 conserves element
    # content and B(C) is -1/5, not -0.19999999999999998
    graph_path = write_json(tmp_path / "graph.json", graph)
    spec_path = write_json(
        tmp_path / "spec.json",
        base_spec(stages=["calibration_suite"], calibration="graph.json"),
    )
    out = tmp_path / "out"
    for args in (["validate", graph_path],
                 ["run", spec_path, "--out", str(out)]):
        proc = run_cli(args)
        assert proc.returncode == 0, (args, proc.stderr)
    rep = json.loads((out / "report.json").read_text())["reports"][
        "calibration_suite"]
    assert rep["no_sinks"] is True
    assert rep["B"] == B


def test_cli_float_graph_of_mixed_magnitudes_solves(tmp_path, capsys):
    # every one-step cycle totals 0 only up to the rounding of 12345.678
    spaces = [_cal_space("a", x=0.1), _cal_space("b", y=12345.678),
              _cal_space("c", z=-987.654321)]
    ends = [[sp["id"], next(iter(sp["entropy"]))] for sp in spaces]
    graph = {"spaces": spaces,
             "facts": [[[u], [v]] for u in ends for v in ends if u != v]}
    spec_path = write_json(
        tmp_path / "spec.json",
        base_spec(stages=["calibration_suite"], calibration=graph))
    out = tmp_path / "out"
    assert main(["run", spec_path, "--out", str(out)]) == 0, \
        capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    rep = report["reports"]["calibration_suite"]
    assert rep["no_sinks"] is True
    assert sorted(rep["B"]) == ["a", "b", "c"]


def test_u_flat_tabulated_entropy_is_reported_as_a_stage_error(tmp_path):
    # dS/dU = 0 leaves the temperature undefined: pressure_consistency raises
    # DomainError, and run still writes the bundle with the stage's error
    flat = {"type": "tabulated", "u_grid": [1, 2, 3], "v_grid": [1, 2],
            "pressure_grid": [[1, 1], [1, 1], [1, 1]],
            "entropy_grid": [[1, 1], [1, 1], [1, 1]]}
    doc = base_spec(stages=["simple_system_suite"], models={"flat": flat},
                    simple_system={"model": "flat"})
    spec_path = write_json(tmp_path / "spec.json", doc)
    out = tmp_path / "out"
    assert run_cli(["validate", spec_path]).returncode == 0
    proc = run_cli(["run", spec_path, "--out", str(out)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert "dS/dU vanishes" in report["reports"]["simple_system_suite"]["error"]


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


def test_cli_max_parts_past_every_state_runs_to_the_budget(tmp_path):
    # close sizes its tables by the parts its states reach, not by max_parts;
    # after it fails, the axiom scan does not read the unclosed input
    write_json(tmp_path / "rel.json", CHAIN_RELATION)
    spec_path = write_json(tmp_path / "spec.json", base_spec(
        stages=["close", "check_axioms"], relation="rel.json",
        options={"max_parts": 10 ** 30, "budget": 2000}))
    assert run_cli(["validate", spec_path]).returncode == 0
    out = tmp_path / "out"
    proc = run_cli(["run", spec_path, "--out", str(out)])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["reports"]["close"]["error"].startswith(
        "closure exceeded the fact budget of 2000")
    assert report["reports"]["check_axioms"] == {"skipped": "close failed"}
    assert [line for line in proc.stdout.splitlines()
            if line.startswith("violation: ")] == [
        "violation: close: " + report["reports"]["close"]["error"]]


def _part(state):
    return [{"lambda": "1", "space": "G", "state": state}]


FAMILY = {"X": _part("x"), "Y": _part("y"), "Z0": _part("x"), "Z1": _part("y"),
          "epsilons": ["1/2"]}


@pytest.mark.parametrize("change, message", [
    ({"epsilons": ["1/2", "0"]}, "epsilon family epsilons must be positive, got 0"),
    ({"Z0": _part("nope")}, "unknown state 'nope' in space 'G'"),
    ({"epsilons": []}, "an epsilon family needs at least one epsilon"),
], ids=["zero-epsilon", "undeclared-state", "no-epsilon"])
def test_cli_bad_epsilon_family_is_input_error(tmp_path, capsys, change, message):
    # checked at load: neither a failing run nor a family skipped unseen
    relation = dict(CHAIN_RELATION, epsilon_families=[dict(FAMILY, **change)])
    rel_path = write_json(tmp_path / "rel.json", relation)
    spec_path = write_json(tmp_path / "spec.json",
                           base_spec(stages=["close", "check_axioms"],
                                     relation="rel.json"))
    for args in (["validate", rel_path],
                 ["run", spec_path, "--out", str(tmp_path / "out")]):
        capsys.readouterr()
        assert main(args) == 2, args
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    "entropy-equal-references": (
        {"stages": ["close", "construct_entropy"], "relation": CHAIN_RELATION,
         "entropy": {"space": "G", "ref_low": "x", "ref_high": "x"}}, {}),
    "entropy-lambda-window-reversed": (
        {"stages": ["close", "construct_entropy"], "relation": CHAIN_RELATION,
         "entropy": {"space": "G", "ref_low": "x", "ref_high": "z",
                     "lambda_lo": "1", "lambda_hi": "0"}}, {}),
    "entropy-oracle-values-missing-a-state": (
        {"stages": ["close", "construct_entropy"], "relation": CHAIN_RELATION,
         "entropy": {"space": "G", "ref_low": "x", "ref_high": "z",
                     "oracle_values": {"x": "0", "z": "1"}}}, {}),
    "entropy-oracle-values-with-an-undeclared-state": (
        {"stages": ["close", "construct_entropy"], "relation": CHAIN_RELATION,
         "entropy": {"space": "G", "ref_low": "x", "ref_high": "z",
                     "oracle_values": {"x": "0", "y": "0", "z": "1", "w": "2"}}}, {}),
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
    "gas-two-v-ranges": {"type": "ideal_gas",
                         "domain": {"U": [0.5, 10], "V": [[0.5, 5], [1, 2]]}},
    "gas-infinite-moles": {"type": "ideal_gas", "moles": math.inf},
    # finite bounds whose oracle floats overflow or underflow to 0
    "gas-u-bound-overflows": {"type": "ideal_gas",
                              "domain": {"U": [1, 1e300], "V": [[0.5, 5]]}},
    "gas-u-bound-underflows": {"type": "ideal_gas",
                               "domain": {"U": [0, 1e-250], "V": [[0.5, 5]]}},
    "vdw-v-bound-underflows": {"type": "van_der_waals", "a": 0.2, "b": 0,
                               "domain": {"U": [1, 8], "V": [[0, 1e-200]]}},
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
# thermal fields naming a model without an entropy oracle, and isotherm
# temperatures that are not positive
NO_ENTROPY_MODELS = dict(GASES, tab=TABULATED)
THERMAL_BAD_FIELDS = {
    "thermal-left-without-entropy": dict(THERMAL, left="tab", experiments=[]),
    "thermal-right-without-entropy": dict(THERMAL, right="tab", experiments=[]),
    "isotherm-model-without-entropy": dict(THERMAL, isotherm={
        "model": "tab", "T": 2.0, "v_grid": [1.5]}),
    "isotherm-zero-temperature": dict(THERMAL, isotherm={
        "model": "gas", "T": 0, "v_grid": [1.0]}),
    "isotherm-negative-temperature": dict(THERMAL, isotherm={
        "model": "gas", "T": -1.0, "v_grid": [1.0]}),
}
for name, thermal in THERMAL_BAD_FIELDS.items():
    BAD_SPECS[name] = ({"stages": ["thermal_suite"], "models": NO_ENTROPY_MODELS,
                        "thermal": thermal}, {})


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
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("case, message", [
    ("thermal-left-without-entropy",
     "thermal.left: model 'tab' has no entropy oracle"),
    ("thermal-right-without-entropy",
     "thermal.right: model 'tab' has no entropy oracle"),
    ("isotherm-model-without-entropy",
     "thermal.isotherm.model: model 'tab' has no entropy oracle"),
    ("isotherm-zero-temperature", "thermal.isotherm.T must be positive, got 0"),
    ("isotherm-negative-temperature",
     "thermal.isotherm.T must be positive, got -1.0"),
])
def test_bad_thermal_field_is_named(tmp_path, case, message):
    fields, _files = BAD_SPECS[case]
    spec_path = write_json(tmp_path / "spec.json", base_spec(**fields))
    with pytest.raises(InputFormatError) as info:
        load_pipeline_spec(spec_path)
    assert str(info.value) == message


# Both physics suites, small: a van der Waals gas and two ideal gases.
PHYSICS_SPEC = base_spec(
    stages=["simple_system_suite", "thermal_suite"],
    models=dict(GASES, vdw={"type": "van_der_waals"}),
    simple_system={"model": "vdw", "pairs": 4, "lipschitz_samples": 10},
    thermal=dict(THERMAL, flow_checks=4, zeroth_triples=2,
                 isotherm={"model": "gas", "T": 2.0, "v_grid": [1.0, 2.0]}),
)
# stage -> model -> (pressure calls, entropy calls) on PHYSICS_SPEC.  Faster
# oracles must leave these alone; a new count means a changed algorithm.
PHYSICS_CALLS = {
    "simple_system_suite": {"van_der_waals(n=1)": (2030, 9)},
    "thermal_suite": {"ideal_gas(n=1)": (0, 859), "ideal_gas(n=2)": (0, 476)},
}


def test_physics_suites_call_each_oracle_as_often_as_recorded(tmp_path):
    """Counting wrappers are set on the loaded models, as a tracer sets them,
    so every oracle must be read off its model when a stage calls it."""
    spec_path = write_json(tmp_path / "spec.json", PHYSICS_SPEC)
    calls = {}
    for stage in PHYSICS_SPEC["stages"]:
        spec = load_pipeline_spec(spec_path, only_stages=[stage])
        thermal = spec.thermal
        models = {m.name: m for m in (spec.simple_system["model"], thermal["left"],
                                      thermal["right"], thermal["isotherm"]["model"])}
        counts = calls[stage] = {name: [0, 0] for name in models}
        for name, model in models.items():
            for index, oracle in enumerate(("pressure", "entropy")):
                def counted(*args, fn=getattr(model, oracle),
                            tally=counts[name], index=index):
                    tally[index] += 1
                    return fn(*args)
                setattr(model, oracle, counted)
        assert run_pipeline(spec, str(tmp_path / stage)).exit_code == 0
    calls = {stage: {name: tuple(c) for name, c in counts.items() if any(c)}
             for stage, counts in calls.items()}
    assert calls == PHYSICS_CALLS


LAYERS = ("relation", "entropy", "simple", "thermal", "constants", "pipeline")

# Validates one file in a fresh interpreter and prints, after the exit code,
# the layer modules that were imported.
VALIDATE_AND_LIST_LAYERS = """
import json, sys
from entropy_engine.cli import main
code = main(["validate", sys.argv[1]])
print(json.dumps([code, sorted(
    name for name in sys.modules
    if name.rpartition(".")[2] in %r and name.startswith("entropy_engine."))]))
""" % (LAYERS,)


@pytest.mark.parametrize("kind, layers, doc", [
    ("model", "simple", {"type": "van_der_waals"}),
    ("relation", "relation", CHAIN_RELATION),
    ("graph", "constants", CALIBRATION_GRAPH),
    # a spec loads the layers of the instances it names, and thermal only
    # for the cross-check of a thermal section; never pipeline or entropy
    ("pipeline", "relation", base_spec(
        stages=["close", "check_axioms", "check_ch", "construct_entropy",
                "verify_principle"], relation=CHAIN_RELATION, entropy=ENTROPY)),
    ("pipeline", "simple thermal", PHYSICS_SPEC),
    ("pipeline", "constants relation", base_spec(
        stages=["close", "check_axioms", "calibration_suite"],
        relation=CHAIN_RELATION, calibration=CALIBRATION_GRAPH)),
])
def test_validate_imports_only_the_layer_of_its_file_kind(tmp_path, kind, layers,
                                                          doc):
    path = write_json(tmp_path / (kind + ".json"), doc)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(entropy_engine.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", VALIDATE_AND_LIST_LAYERS, path],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    message, listing = proc.stdout.splitlines()
    assert message == "%s: valid %s instance" % (path, kind)
    code, imported = json.loads(listing)
    assert code == 0
    assert imported == ["entropy_engine." + layer for layer in layers.split()]


def test_spec_stage_table_names_the_pipeline_stages():
    assert list(STAGE_TABLE) == list(STAGE_FUNCS)


def test_validate_spec_output_is_unchanged(tmp_path):
    rel_path = write_json(tmp_path / "rel.json", CHAIN_RELATION)
    spec_path = write_json(tmp_path / "spec.json", base_spec(
        stages=["close", "check_axioms"], relation="rel.json"))
    proc = run_cli(["validate", spec_path])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "%s: valid pipeline instance\n" % spec_path
    assert proc.stderr == ""


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
       value=st.sampled_from([DROP, "x", 1.5, [1], None, -1,
                              float("nan"), float("inf")]))
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
    report = work / "out" / "report.json"
    if report.exists():
        json.loads(report.read_text(), parse_constant=_reject_constant)


def _reject_constant(name):
    raise ValueError("report.json holds %s, which strict JSON does not allow" % name)


# ----------------------------------------------------------------- emitting

# Bundles whose report.json must be the one-string encoding, each with a
# piece of text that shows the report holds what the case is for.
EMITTED = {
    "closed-chain": (base_spec(
        stages=["close", "check_axioms", "check_ch", "construct_entropy",
                "verify_principle"],
        relation=CHAIN_RELATION, entropy=dict(ENTROPY, resolution="1")),
        '"inequalities"'),
    "physics": (PHYSICS_SPEC, '"isotherm_samples"'),
    "calibration": (base_spec(stages=["calibration_suite"],
                              calibration=GAP_GRAPH), '"gaps"'),
    "inf-sentinels": (base_spec(stages=["calibration_suite"],
                                calibration=CALIBRATION_GRAPH), '"inf"'),
}


@pytest.mark.parametrize("case", sorted(EMITTED))
def test_streamed_report_equals_the_one_string_encoding(tmp_path, case):
    doc, shown = EMITTED[case]
    spec_path = write_json(tmp_path / "spec.json", doc)
    result = run_pipeline(load_pipeline_spec(spec_path), str(tmp_path / "out"))
    # reference oracle: the whole document encoded as one string
    want = json.dumps(result.report, indent=2, sort_keys=True) + "\n"
    assert shown in want
    assert (tmp_path / "out" / "report.json").read_bytes() == want.encode()


def test_emit_report_peaks_far_below_the_size_of_the_file(tmp_path):
    rows = [{"kind": "forward", "left": "1*G:x%d" % i, "right": "1*G:y%d" % i,
             "S_left": i / 7, "S_right": i / 3, "margin": i / 21}
            for i in range(2000)]
    report = {"schema": "entropy-engine/1",
              "reports": {"verify_principle": {"inequalities": rows}}}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        emit_report(report, {}, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = os.path.getsize(tmp_path / "report.json")
    assert peak < size / 4, (peak, size)


def test_failed_emit_keeps_the_earlier_report_and_leaves_no_temp_file(tmp_path):
    emit_report({"run": 1}, {}, str(tmp_path))
    old = (tmp_path / "report.json").read_bytes()
    # keys sort before the bad value, so part of the document is written
    with pytest.raises(TypeError):
        emit_report({"run": 2, "unencodable": object()}, {}, str(tmp_path))
    assert (tmp_path / "report.json").read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []


# A locale whose encoding is ASCII: no C-locale coercion and no UTF-8 mode.
ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
                "LC_ALL": "C", "LANG": "C"}


@pytest.mark.parametrize("ensure_ascii", [False, True], ids=["utf8", "escaped"])
def test_bundle_does_not_depend_on_the_locale_encoding(tmp_path, ensure_ascii):
    # JSON is UTF-8 (RFC 8259): a state named "zé" is read from the raw UTF-8
    # bytes or from é escapes, and written into entropy_tables.csv, the
    # same under an ASCII locale as under a UTF-8 one
    relation = json.loads(json.dumps(CHAIN_RELATION).replace('"z"', '"zé"'))
    doc = base_spec(stages=["close", "check_axioms", "construct_entropy",
                            "verify_principle"], relation=relation,
                    entropy=dict(ENTROPY, ref_high="zé", resolution="1"))
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(json.dumps(doc, ensure_ascii=ensure_ascii).encode())
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(entropy_engine.__file__)))
    bundles = {}
    for name, locale in (("ascii", ASCII_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
        out = tmp_path / name
        for args in (["validate", str(spec_path)],
                     ["run", str(spec_path), "--out", str(out)]):
            proc = subprocess.run(
                [sys.executable, "-m", "entropy_engine.cli"] + args,
                capture_output=True, env=dict(env, **locale), timeout=60)
            assert proc.returncode == 0, (name, args, proc.stderr)
        bundles[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(bundles["ascii"]) == ["entropy_tables.csv", "report.json"]
    assert "zé".encode() in bundles["ascii"]["entropy_tables.csv"]
    assert bundles["ascii"] == bundles["utf8"]


def test_run_prints_violations_under_an_ascii_locale(tmp_path):
    # the CH violation names the state "zé", which ASCII cannot encode
    relation = json.loads(json.dumps(CHAIN_RELATION).replace('"z"', '"zé"'))
    doc = base_spec(stages=["close", "check_axioms", "check_ch", "construct_entropy",
                            "verify_principle"], relation=relation,
                    entropy=dict(ENTROPY, ref_high="zé", resolution="1"))
    spec_path = write_json(tmp_path / "spec.json", doc)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(entropy_engine.__file__)), **ASCII_LOCALE)
    proc = subprocess.run(
        [sys.executable, "-m", "entropy_engine.cli", "run", spec_path,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, errors="replace", env=env, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "violation: " in proc.stdout and "\\xe9" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_validate_reads_each_file_once(tmp_path, monkeypatch):
    from entropy_engine import cli, spec

    reads = []

    def counting(path, read=spec.read_json):
        reads.append(os.path.basename(path))
        return read(path)

    monkeypatch.setattr(cli, "read_json", counting)
    monkeypatch.setattr(spec, "read_json", counting)
    write_json(tmp_path / "rel.json", CHAIN_RELATION)
    spec_path = write_json(tmp_path / "spec.json", base_spec(
        stages=["close"], relation="rel.json"))
    assert main(["validate", spec_path]) == 0
    assert sorted(reads) == ["rel.json", "spec.json"]


EXIT_WITH_FREEZE_COUNT = """
import atexit, gc, sys
from entropy_engine import cli
atexit.register(lambda: print(gc.get_freeze_count() > 0))
sys.argv[1:] = ["validate", sys.argv[1]]
cli.entry()
"""


def test_cli_entry_freezes_the_heap_before_exit(tmp_path):
    # so that interpreter shutdown skips collecting what the run built
    path = write_json(tmp_path / "graph.json", GAP_GRAPH)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(entropy_engine.__file__)))
    proc = subprocess.run([sys.executable, "-c", EXIT_WITH_FREEZE_COUNT, path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "%s: valid graph instance" % path, "True"]
