"""Differential tests: the Brent-polished thermal split and isotherm solve
against the frozen bisection versions in reference_thermal.py, called through
oracle_adapter.py, within the tolerances the README states under "Numerical
tolerances"."""

import json
import random

import pytest

import oracle_adapter as ref
from entropy_engine.errors import EngineError
from entropy_engine.pipeline import load_pipeline_spec, run_pipeline
from entropy_engine.simple import (
    monatomic_ideal_gas,
    tabulated_model,
    van_der_waals_gas,
)
from entropy_engine.thermal import (
    ThermalJoin,
    isotherm_state,
    temperature,
    thermal_split,
)

G1 = monatomic_ideal_gas(1)
G2 = monatomic_ideal_gas(2)
VDW = van_der_waals_gas()


def _twin_peaks():
    # S(U) is piecewise linear with two equal maxima, at U = 1 and U = 3
    us = [0.0, 1.0, 2.0, 3.0, 4.0]
    s = [[x, x] for x in (0.0, 2.0, 1.0, 2.0, 0.0)]
    return tabulated_model(us, [1.0, 2.0], [[1.0, 1.0]] * 5, s)


def _flat():
    us, vs = [0.0, 10.0], [1.0, 2.0]
    return tabulated_model(us, vs, [[1.0, 1.0]] * 2, [[0.0, 0.0]] * 2)


def outcome(fn, *args):
    """The result, or the type of the engine error it raised."""
    try:
        return fn(*args)
    except EngineError as exc:
        return type(exc)


def split_cases():
    rng = random.Random(11)
    narrow = monatomic_ideal_gas(1, domain=((1.0, 2.0), (0.5, 5.0)))
    heavy = monatomic_ideal_gas(100, domain=((1.0, 2.0), (0.5, 5.0)))
    cases = [
        (G1, G2, 6.0, 1.0, 1.0),
        (G1, G1, 4.0, 1.0, 1.0),
        (G1, G1, 7.3, 2.0, 0.7),
        (narrow, heavy, 2.5, 1.0, 1.0),  # maximizer on the boundary
        (_twin_peaks(), _flat(), 5.0, 1.5, 1.5),  # degenerate split
    ]
    for _ in range(12):
        cases.append((G1, G2, rng.uniform(2.0, 14.0),
                      rng.uniform(0.6, 4.9), rng.uniform(0.6, 4.9)))
        cases.append((G1, VDW, rng.uniform(3.0, 15.0),
                      rng.uniform(0.6, 4.9), rng.uniform(0.7, 3.9)))
    return cases


@pytest.mark.parametrize("case", split_cases(), ids=lambda c: None)
def test_split_matches_reference(case):
    left, right, U, V1, V2 = case
    join = ThermalJoin(left, right)
    new = outcome(thermal_split, join, U, V1, V2)
    old = outcome(ref.thermal_split, join, U, V1, V2)
    if isinstance(old, type):
        assert new is old
        return
    assert len(new.alternatives) == len(old.alternatives)
    assert abs(new.X1.U - old.X1.U) <= 1e-10 * max(abs(U), 1.0)
    assert new.X2.V == old.X2.V and new.X1.V == old.X1.V


def test_degenerate_case_has_an_alternative():
    split = thermal_split(ThermalJoin(_twin_peaks(), _flat()), 5.0, 1.5, 1.5)
    assert split.degenerate
    # the derivative's central difference moves each sign change a third of
    # its stencil off the kink
    found = sorted([split.X1.U] + [x.U for x in split.alternatives])
    assert found == pytest.approx([1.0, 3.0], abs=1e-4)


def isotherm_cases():
    rng = random.Random(5)
    cases = [(G1, 1.0, 1e6)]  # out of range: None
    for _ in range(15):
        cases.append((G1, rng.uniform(0.6, 4.9), rng.uniform(0.5, 6.0)))
        cases.append((VDW, rng.uniform(0.7, 3.9), rng.uniform(0.8, 5.0)))
    return cases


@pytest.mark.parametrize("case", isotherm_cases(), ids=lambda c: None)
def test_isotherm_state_matches_reference(case):
    model, V, T = case
    new = isotherm_state(model, V, T)
    old = ref.isotherm_state(model, V, T)
    if old is None:
        assert new is None
        return
    assert new.V == old.V
    assert abs(new.U - old.U) <= 1e-9 * max(1.0, abs(old.U))
    assert abs(temperature(model, new) - T) <= 1e-9 * T


THERMAL_SPEC = {
    "schema": "entropy-engine/1",
    "stages": ["thermal_suite"],
    "models": {"gas": {"type": "ideal_gas", "moles": "1"},
               "gas2": {"type": "ideal_gas", "moles": "2"},
               "vdw": {"type": "van_der_waals"}},
    "thermal": {
        "left": "gas", "right": "gas2",
        "experiments": [{"U": 6.0, "V1": [1.0], "V2": [1.0]},
                        {"U": 9.5, "V1": [2.5], "V2": [0.8]}],
        "flow_checks": 25, "zeroth_triples": 8,
        "isotherm": {"model": "vdw", "T": 1.7,
                     "v_grid": [0.7, 1.2, 2.0, 3.1, 3.9]},
    },
}


def _integer_and_boolean_fields(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _integer_and_boolean_fields(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _integer_and_boolean_fields(value, path + (i,))
    elif isinstance(doc, (bool, int)):
        yield path, doc


@pytest.mark.parametrize("seed", [1, 2])
def test_thermal_spec_counts_match_reference(tmp_path, monkeypatch, seed):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(THERMAL_SPEC, seed=seed)))
    reports = []
    for side in ("new", "ref"):
        with monkeypatch.context() as patched:
            if side == "ref":
                for module in ("pipeline", "thermal"):
                    patched.setattr("entropy_engine.%s.thermal_split" % module,
                                    ref.thermal_split)
                    patched.setattr("entropy_engine.%s.isotherm_state" % module,
                                    ref.isotherm_state)
            run_pipeline(load_pipeline_spec(str(spec_path)), str(tmp_path / side))
        reports.append(json.loads((tmp_path / side / "report.json").read_text()))
    new, old = (dict(_integer_and_boolean_fields(r)) for r in reports)
    assert new == old
    suite = reports[0]["reports"]["thermal_suite"]
    assert suite["flow_checks"] == 25 and suite["isotherm_samples"] == 5
