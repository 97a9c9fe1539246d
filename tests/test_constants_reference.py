"""Differential tests: the table-driven calibration layer against the frozen
fact-scanning reference in reference_constants.py."""

import json
import random

import pytest

import reference_constants as ref
from entropy_engine import constants
from entropy_engine.constants import graph_from_json
from entropy_engine.errors import InfeasibleConstantsError
from entropy_engine.pipeline import load_pipeline_spec, run_pipeline


def random_graph_doc(rng):
    """Random graph JSON: one- and two-part facts that conserve element
    content, Fraction, float or mixed entropies, 0-2 catalysts."""
    kind = rng.choice(["fraction", "float", "mixed"])

    def level():
        if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
            return "%d/%d" % (rng.randint(-6, 6), rng.choice([1, 2, 3]))
        return rng.choice([0.0, 0.5, round(rng.uniform(-4, 4), 3)])

    n_spaces = rng.randint(1, 4)
    spaces = []
    for k in range(n_spaces):
        spaces.append({
            "id": "p%d" % k,
            "composition": [rng.choice([1, 2])],
            "entropy": {
                "s%d" % j: level() for j in range(rng.randint(1, 3))
            },
        })
    amount = {sp["id"]: sp["composition"][0] for sp in spaces}

    def side():
        parts = []
        for _ in range(rng.choice([1, 1, 2])):
            sp = rng.choice(spaces)
            parts.append([sp["id"], rng.choice(sorted(sp["entropy"]))])
        return parts

    facts = []
    for _ in range(rng.randint(0, 14)):
        left, right = side(), side()
        if sum(amount[p] for p, _ in left) == sum(amount[p] for p, _ in right):
            facts.append([left, right])
    return {
        "spaces": spaces,
        "facts": facts,
        "catalysts": rng.sample(sorted(amount),
                                rng.randint(0, min(2, n_spaces))),
        "max_chain": rng.randint(1, 5),
    }


def outcome(fn, *args):
    """repr of the result, or the exception type and message it raised."""
    try:
        return ("ok", repr(fn(*args)))
    except InfeasibleConstantsError as exc:
        return ("raised", type(exc).__name__, str(exc))


@pytest.mark.parametrize("seed", range(6))
def test_table_matches_fact_scanning_reference(seed):
    rng = random.Random(1000 + seed)
    raised = 0
    composite = 0
    for _ in range(40):
        doc = random_graph_doc(rng)
        g = graph_from_json(doc)
        m = doc["max_chain"]
        ids = g.simple_ids()
        node_ids = g.node_ids()
        assert node_ids == ref.node_ids(g)
        composite += any(len(n) > 1 for n in node_ids)
        for u in node_ids:
            for v in node_ids:
                assert repr(constants._signature_D(g, u, v)) == repr(
                    ref._signature_D(g, u, v))
        assert repr(constants._d_matrix(g, node_ids)) == repr(
            ref._d_matrix(g, node_ids))
        for a in ids:
            for b in ids:
                assert repr(constants.compute_D(g, a, b)) == repr(
                    ref.compute_D(g, a, b))
                assert repr(constants.compute_E(g, a, b)) == repr(
                    ref.compute_E(g, a, b, m))
                assert repr(constants.compute_F(g, a, b)) == repr(
                    ref.compute_F(g, a, b, m))
                assert outcome(constants.detect_gap, g, a, b) == outcome(
                    ref.detect_gap, g, a, b, m)
        assert outcome(constants.check_no_sinks, g) == outcome(
            ref.check_no_sinks, g, m)
        assert outcome(constants._collect_constraints, g) == outcome(
            ref._collect_constraints, g, m)
        assert json.dumps(constants.matrix_json(g)) == json.dumps(
            ref.matrix_json(g, m))
        got = outcome(constants.solve_additive_constants, g)
        assert got == outcome(ref.solve_additive_constants, g, m)
        raised += got[0] == "raised"
    # the sample must reach both the composite and the infeasible paths
    assert composite > 0 and raised > 0


def test_catalyst_nodes_accumulate_across_catalysts():
    # L's chain reaches the (A, K) and (B, K) nodes only because catalyst K
    # added them, and the L -> K -> L round trip costs -3.
    doc = {
        "spaces": [
            {"id": "A", "composition": [1], "entropy": {"x": 0}},
            {"id": "B", "composition": [1], "entropy": {"y": 0}},
            {"id": "K", "composition": [1], "entropy": {"k": 0, "m": -3}},
            {"id": "L", "composition": [1], "entropy": {"l": 0}},
        ],
        "facts": [
            [[["A", "x"]], [["B", "y"]]],
            [[["L", "l"]], [["K", "m"]]],
            [[["K", "k"]], [["L", "l"]]],
        ],
        "catalysts": ["K", "L"],
    }
    g = graph_from_json(doc)
    assert constants.compute_E(g, "A", "B") == 0
    assert constants.compute_F(g, "A", "B") == ref.compute_F(g, "A", "B") == -3


def catalyst_spec_doc(rng, n_spaces=3, n_states=5, max_chain=4):
    """Tight calibration instance with a catalyst and two-part facts."""
    names = ["g%d" % k for k in range(n_spaces)]
    b_true = {nm: rng.randint(-2, 2) for nm in names}
    star = {}
    spaces = []
    for nm in names:
        table = {}
        for k in range(n_states):
            s_star = 0 if k == 0 else rng.randint(0, 5)
            table["s%d" % k] = str(s_star - b_true[nm])
            star[(nm, "s%d" % k)] = s_star
        spaces.append({"id": nm, "composition": ["1"], "entropy": table})
    facts = [
        [[list(x)], [list(y)]]
        for x, vx in star.items() for y, vy in star.items()
        if x != y and vx <= vy
    ]
    cat = rng.choice(names)
    facts += [
        [[list(x), [cat, "s0"]], [list(y), [cat, "s0"]]]
        for x, vx in star.items() for y, vy in star.items()
        if x[0] != cat and y[0] != cat and x[0] != y[0] and vx < vy
    ][:6]
    return {"spaces": spaces, "facts": facts, "catalysts": [cat],
            "max_chain": max_chain}


# the oracle's functions as the pipeline calls them, given each graph's
# declared bound explicitly instead of the oracle's default of 4
ORACLE_STAGE_CALLS = {
    "matrix_json": lambda g: ref.matrix_json(g, g.max_chain),
    "check_no_sinks": lambda g: ref.check_no_sinks(g, g.max_chain),
    "solve_additive_constants":
        lambda g: ref.solve_additive_constants(g, g.max_chain),
    "detect_gap": lambda g, a, b: ref.detect_gap(g, a, b, g.max_chain),
}


@pytest.mark.parametrize("seed", [1, 2])
def test_catalyst_spec_report_bytes_match_reference(tmp_path, monkeypatch,
                                                    seed):
    # on these tight instances every bound of 2 or more gives the same
    # values, so a bound of 1 is the case that shows the declared bound
    # reaching every calibration call
    for max_chain in (4, 1):
        spec = {
            "schema": "entropy-engine/1",
            "seed": seed,
            "stages": ["calibration_suite"],
            "calibration": catalyst_spec_doc(random.Random(seed),
                                             max_chain=max_chain),
        }
        spec_path = tmp_path / ("spec%d.json" % max_chain)
        spec_path.write_text(json.dumps(spec))
        new_dir = tmp_path / ("new%d" % max_chain)
        ref_dir = tmp_path / ("ref%d" % max_chain)
        run_pipeline(load_pipeline_spec(str(spec_path)), str(new_dir))
        with monkeypatch.context() as patched:
            for name, call in ORACLE_STAGE_CALLS.items():
                patched.setattr("entropy_engine.pipeline." + name, call)
            run_pipeline(load_pipeline_spec(str(spec_path)), str(ref_dir))
        for name in ("report.json", "def_matrices.csv"):
            assert (new_dir / name).read_bytes() == (ref_dir / name).read_bytes()
        report = json.loads((new_dir / "report.json").read_text())
        calibration = report["reports"]["calibration_suite"]
        assert calibration["max_chain"] == max_chain
        assert calibration["no_sinks"] is True
        if max_chain == 1:
            # every off-diagonal F is inf: no difference is bounded at all
            assert calibration["gaps"] == {
                "g0|g1": "inf", "g0|g2": "inf", "g1|g2": "inf"}
