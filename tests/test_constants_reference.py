"""Differential tests: the table-driven calibration layer against the frozen
fact-scanning reference in reference_constants.py, and its chain values
against an enumeration of every chain over the order-free node set."""

import json
import math
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
    except (InfeasibleConstantsError, ref.InfeasibleConstantsError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def solved_fields(solve, graph, *args):
    """B, component_id and gauges of a solve, the fields both solvers have."""
    sol = solve(graph, *args)
    return sol.B, sorted(sol.component_id.items()), sol.gauges


def chain_node_ids(graph):
    """The order-free node set: the frozen oracle's nodes plus the composite
    of every simple space with every catalyst."""
    ids = set(ref.node_ids(graph))
    ids.update(
        tuple(sorted((s, cat))) for s in graph.nodes for cat in graph.catalysts
    )
    return sorted(ids)


def enumerated_chains(matrix, nodes, max_chain):
    """Least total over every chain of at most max_chain nodes, found by
    walking each one: best[(u, v)], absent when no chain links u to v.  The
    one-node chain gives 0."""
    best = {}

    def walk(start, node, total, length):
        if total < best.get((start, node), math.inf):
            best[(start, node)] = total
        if length < max_chain:
            for v in nodes:
                if (node, v) in matrix:
                    walk(start, v, total + matrix[(node, v)], length + 1)

    for u in nodes:
        walk(u, u, 0, 1)
    return best


def enumerated_values(graph):
    """E and F per simple pair and the bound list of _collect_constraints,
    all from enumerated chains over the frozen oracle's one-step costs."""
    m = graph.max_chain
    simple = [(s,) for s in ref.simple_ids(graph)]
    e_chains = enumerated_chains(ref._d_matrix(graph, simple), simple, m)
    full = chain_node_ids(graph)
    f_chains = enumerated_chains(ref._d_matrix(graph, full), full, m)
    e, f = {}, {}
    bounds = []
    for (a,) in simple:
        for (b,) in simple:
            e[(a, b)] = f[(a, b)] = e_chains.get(((a,), (b,)), math.inf)
            for cat in graph.catalysts:
                f[(a, b)] = min(f[(a, b)], f_chains.get(
                    (tuple(sorted((a, cat))), tuple(sorted((b, cat)))),
                    math.inf))
            if a != b and f[(a, b)] < math.inf:
                bounds.append((((a, 1), (b, -1)), f[(a, b)]))
    for u in ref.node_ids(graph):
        for v in ref.node_ids(graph):
            w = f_chains.get((u, v), math.inf)
            if u == v or (len(u) == 1 and len(v) == 1) or w == math.inf:
                continue
            coeffs = {}
            for s in u:
                coeffs[s] = coeffs.get(s, 0) + 1
            for s in v:
                coeffs[s] = coeffs.get(s, 0) - 1
            coeffs = tuple((s, c) for s, c in sorted(coeffs.items()) if c)
            if coeffs:
                bounds.append((coeffs, w))
    return e, f, bounds


@pytest.mark.parametrize("seed", range(6))
def test_chain_values_match_enumeration_over_one_node_set(seed):
    rng = random.Random(1000 + seed)
    for _ in range(40):
        g = graph_from_json(random_graph_doc(rng))
        assert sorted(g.f_table) == chain_node_ids(g)
        e, f, bounds = enumerated_values(g)
        for a, b in e:
            assert constants.compute_E(g, a, b) == e[(a, b)]
            assert constants.compute_F(g, a, b) == f[(a, b)]
        assert constants._collect_constraints(g) == bounds


@pytest.mark.parametrize("seed", range(6))
def test_table_matches_fact_scanning_reference(seed):
    # the frozen oracle lets each catalyst's composites stay in the node
    # list for the next, so its chain values agree with the order-free node
    # set only on graphs whose catalyst composites add no node; draw until
    # 40 such graphs are compared
    rng = random.Random(1000 + seed)
    raised = 0
    composite = 0
    compared = 0
    while compared < 40:
        doc = random_graph_doc(rng)
        g = graph_from_json(doc)
        m = doc["max_chain"]
        ids = g.simple_ids()
        node_ids = g.node_ids()
        assert node_ids == ref.node_ids(g)
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
        if chain_node_ids(g) != node_ids:
            continue
        compared += 1
        composite += any(len(n) > 1 for n in node_ids)
        for a in ids:
            for b in ids:
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
        got = outcome(solved_fields, constants.solve_additive_constants, g)
        if ref.check_no_sinks(g, m).holds and all(
                sorted(c for _s, c in coeffs) == [-1, 1]
                for coeffs, _w in constants._collect_constraints(g)):
            # the reference propagates interval bounds, which is exact on
            # differences B(a) - B(b) <= w only
            expected = outcome(solved_fields, ref.solve_additive_constants, g, m)
            assert got[0] == expected[0]
            assert got[0] == "raised" or got == expected
        raised += got[0] == "raised"
    # the sample must reach both the composite and the infeasible paths
    assert composite > 0 and raised > 0


def test_catalyst_composites_form_one_order_free_node_set():
    # L's chain runs through the (A, K) and (B, K) composites of catalyst K,
    # and the L -> K -> L round trip costs -3, in either catalog order
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
    }
    for catalysts in (["K", "L"], ["L", "K"]):
        g = graph_from_json(dict(doc, catalysts=catalysts))
        assert constants.compute_E(g, "A", "B") == 0
        assert constants.compute_F(g, "A", "B") == -3
    assert ref.compute_F(g, "A", "B") == -3


def test_catalyst_order_does_not_change_f_on_a_graph_with_sinks():
    # B.s1 is a sink reached from K, so (B, L) reaches (B, K) only through
    # composites of K; the accumulating node list lost them for ["K", "L"]
    doc = {
        "spaces": [
            {"id": "A", "composition": [1], "entropy": {"s0": -2}},
            {"id": "B", "composition": [1], "entropy": {"s0": -2, "s1": 0}},
            {"id": "K", "composition": [1], "entropy": {"s0": 1}},
            {"id": "L", "composition": [1], "entropy": {"s0": -3}},
        ],
        "facts": [
            [[["K", "s0"]], [["B", "s1"]]],
            [[["B", "s0"], ["A", "s0"]], [["K", "s0"], ["B", "s1"]]],
            [[["L", "s0"]], [["A", "s0"]]],
        ],
        "max_chain": 4,
    }
    for catalysts in (["K", "L"], ["L", "K"]):
        g = graph_from_json(dict(doc, catalysts=catalysts))
        assert constants.compute_F(g, "L", "B") == 5
        assert enumerated_values(g)[1][("L", "B")] == 5


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
