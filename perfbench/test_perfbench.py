"""Self-tests of the benchmark: generators, output checks and span nesting.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import layers  # noqa: E402
import workloads  # noqa: E402
from entropy_engine.cli import main as cli_main  # noqa: E402

NAMES = sorted(workloads.CHECKS)


def _files(work_dir):
    out = {}
    for name in sorted(os.listdir(work_dir)):
        with open(os.path.join(work_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_deterministic(tmp_path, name):
    a = workloads.generate(name, 7, str(tmp_path / "a"))
    workloads.generate(name, 7, str(tmp_path / "b"))
    other = workloads.generate(name, 8, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    # another seed is another instance of the same size class
    assert sorted(_files(tmp_path / "a")) == sorted(_files(tmp_path / "c"))
    for key in ("facts", "universe", "pairs", "flow_checks"):
        assert a.answers.get(key) == other.answers.get(key)
    assert "answers.json" not in json.dumps(json.load(open(a.spec)))


def _run_cli(work, out_dir):
    return cli_main(["run", work.spec, "--out", out_dir])


@pytest.fixture(scope="module")
def calibration_bundle(tmp_path_factory):
    base = tmp_path_factory.mktemp("calibration")
    work = workloads.generate("calibration", 3, str(base / "in"))
    out_dir = str(base / "out")
    code = _run_cli(work, out_dir)
    return work, out_dir, code


def _tampered(out_dir, tmp_path, edit):
    copy = str(tmp_path / "tampered")
    shutil.copytree(out_dir, copy)
    path = os.path.join(copy, "report.json")
    with open(path) as fh:
        report = json.load(fh)
    edit(report["reports"])
    with open(path, "w") as fh:
        json.dump(report, fh)
    return copy


def test_check_accepts_a_correct_bundle(calibration_bundle):
    work, out_dir, code = calibration_bundle
    assert workloads.check(work.name, out_dir, work.answers, code) == []


def test_check_rejects_a_changed_B(calibration_bundle, tmp_path):
    work, out_dir, code = calibration_bundle

    def edit(reports):
        b = reports["calibration_suite"]["B"]
        key = sorted(b)[-1]
        b[key] = str(int(b[key]) + 1)

    bad = _tampered(out_dir, tmp_path, edit)
    assert workloads.check(work.name, bad, work.answers, code)


def test_check_rejects_a_dropped_fact_count(calibration_bundle, tmp_path):
    work, out_dir, code = calibration_bundle
    bad = _tampered(out_dir, tmp_path,
                    lambda reports: reports["close"].pop("facts"))
    assert workloads.check(work.name, bad, work.answers, code)


def test_check_rejects_a_nonzero_exit(calibration_bundle):
    work, out_dir, _code = calibration_bundle
    assert workloads.check(work.name, out_dir, work.answers, 1)


def test_check_rejects_a_shifted_entropy_table(tmp_path):
    work = workloads.generate("relation-compose", 2, str(tmp_path / "in"))
    out_dir = str(tmp_path / "out")
    code = _run_cli(work, out_dir)
    assert workloads.check(work.name, out_dir, work.answers, code) == []
    csv_path = os.path.join(out_dir, "entropy_tables.csv")
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[1]["S"] = str(Fraction(rows[1]["S"]) + Fraction(1, 2))
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert workloads.check(work.name, out_dir, work.answers, code)


def test_traced_spans_nest_and_self_times_add_up(tmp_path):
    work = workloads.generate("calibration", 4, str(tmp_path / "in"))
    spans_path = str(tmp_path / "spans.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "trace_child.py"), spans_path,
         "test-run", "run", work.spec, "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
        stdout=subprocess.DEVNULL, timeout=120,
    )
    with open(spans_path) as fh:
        spans = json.load(fh)["spans"]
    by_id = {s["id"]: s for s in spans}
    assert {s["run"] for s in spans} == {"test-run"}
    names = {s["name"] for s in spans}
    assert {"cli.main", "stage.close", "stage.calibration_suite",
            "relation.close", "constants.matrix_json",
            "pipeline.emit_report"} <= names
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
    own = layers.self_times(spans)
    assert all(v >= 0 for v in own.values())
    for root in (s for s in spans if s["parent"] is None):
        subtree = [root["id"]]
        for span in spans:
            if span["parent"] in subtree:
                subtree.append(span["id"])
        total = sum(own[i] for i in subtree)
        assert total == pytest.approx(layers.duration(root), abs=1e-6)
    metrics = layers.layer_metrics(spans)
    assert set(metrics) | {"trace.overhead_frac"} == set(layers.UNITS)
    assert metrics["relation.close.facts"] == work.answers["facts"]
    assert metrics["constants.spaces"] == len(work.answers["b_true"])


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert sorted(w["name"] for w in bench["workloads"]) == NAMES
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS
    assert [m["name"] for m in bench["end_to_end"]] == [
        "run_s", "peak_rss_mb", "setup_s"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "physics",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
