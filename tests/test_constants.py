import itertools
import math
import random
from fractions import Fraction

import pytest

from entropy_engine import constants
from entropy_engine.constants import (
    SpaceNode,
    StateSpaceGraph,
    check_entropy_offset_criterion,
    check_no_sinks,
    composite_B,
    compute_D,
    compute_E,
    compute_F,
    detect_gap,
    detect_negative_cycle,
    graph_from_json,
    matrix_json,
    solve_additive_constants,
)
from entropy_engine.errors import InfeasibleConstantsError, InputFormatError

INF = math.inf


def node(sid, table, composition=(1,)):
    return SpaceNode(
        sid,
        tuple(Fraction(c) for c in composition),
        {k: Fraction(v) for k, v in table.items()},
    )


def fact(src, dst):
    """One-step fact between (space, state) pairs (singleton sides)."""
    return ((src,), (dst,))


def gap_graph():
    """Hand instance with F(1,2) = 5 and F(2,1) = -3."""
    n1 = node("s1", {"a": 0, "b": 7})
    n2 = node("s2", {"c": 5, "d": 10})
    facts = [fact(("s1", "a"), ("s2", "c")), fact(("s2", "d"), ("s1", "b"))]
    return StateSpaceGraph({"s1": n1, "s2": n2}, facts)


# --------------------------------------------------------------------- D


def test_direct_difference_includes_reflexive_step():
    g = StateSpaceGraph({"A": node("A", {"x": 3})}, [])
    assert compute_D(g, "A", "A") <= 0


def test_no_process_means_infinite_difference():
    g = StateSpaceGraph(
        {"A": node("A", {"x": 0}), "B": node("B", {"y": 0})}, []
    )
    assert compute_D(g, "A", "B") == INF


def test_direct_difference_matches_exhaustive_scan():
    rng = random.Random(4)
    states = ["s%d" % k for k in range(4)]
    ta = {s: rng.randint(0, 8) for s in states}
    tb = {s: rng.randint(0, 8) for s in states}
    facts = [
        fact(("A", a), ("B", b))
        for a in states for b in states if rng.random() < 0.4
    ]
    g = StateSpaceGraph({"A": node("A", ta), "B": node("B", tb)}, facts)
    expected = min(
        (tb[r[0][1]] - ta[l[0][1]] for l, r in facts), default=INF
    )
    assert compute_D(g, "A", "B") == expected


# --------------------------------------------------------------------- E


def test_single_edge_chain_equals_direct_difference():
    g = gap_graph()
    assert compute_E(g, "s1", "s2") == compute_D(g, "s1", "s2")


def test_triangle_prefers_two_step_chain():
    na = node("A", {"x": 0})
    nb = node("B", {"x": 0, "y": 1})
    nc = node("C", {"y": 1, "z": 3})
    facts = [
        fact(("A", "x"), ("B", "y")),   # cost 1
        fact(("B", "x"), ("C", "y")),   # cost 1
        fact(("A", "x"), ("C", "z")),   # cost 3
    ]
    g = StateSpaceGraph({"A": na, "B": nb, "C": nc}, facts)
    assert compute_D(g, "A", "C") == 3
    assert compute_E(StateSpaceGraph(g.nodes, g.facts, g.catalysts, 3), "A", "C") == 2


def test_chain_table_agrees_with_brute_force_enumeration():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 5)
        names = [("n%d" % k,) for k in range(n)]
        matrix = {}
        for u in names:
            for v in names:
                roll = rng.random()
                if roll < 0.5:
                    matrix[(u, v)] = rng.randint(-3, 6)
        max_chain = 4

        def brute(a, b):
            best = 0 if a == b else INF
            frontier = [(a, 0)]
            for _ in range(max_chain - 1):
                nxt = []
                for nd, cost in frontier:
                    for v in names:
                        w = matrix.get((nd, v))
                        if w is None:
                            continue
                        total = cost + w
                        nxt.append((v, total))
                        if v == b and total < best:
                            best = total
                frontier = nxt
            return best

        table = constants._chain_table(matrix, names, max_chain)
        for a in names:
            for b in names:
                assert table[a].get(b, INF) == brute(a, b)


def test_unbounded_chain_shows_up_as_negative_cycle():
    nx = node("X", {"x": 0, "y": 1})
    ny = node("Y", {"x": 0, "y": 1})
    facts = [fact(("X", "y"), ("Y", "x")), fact(("Y", "y"), ("X", "x"))]
    g = StateSpaceGraph({"X": nx, "Y": ny}, facts)
    matrix = {
        (("X",), ("Y",)): compute_D(g, "X", "Y"),
        (("Y",), ("X",)): compute_D(g, "Y", "X"),
    }
    cert = detect_negative_cycle(matrix, [("X",), ("Y",)])
    assert cert is not None
    cycle, total = cert
    assert total < 0
    # longer chain bounds keep digging deeper
    assert (compute_E(StateSpaceGraph(g.nodes, g.facts, g.catalysts, 6), "X", "Y")
            < compute_E(StateSpaceGraph(g.nodes, g.facts, g.catalysts, 2), "X", "Y"))


def chain_of_six(max_chain):
    """Spaces A..F with every entropy 0, linked A -> B -> ... -> F -> A."""
    names = "ABCDEF"
    spaces = {nm: node(nm, {"x": 0}) for nm in names}
    facts = [fact((a, "x"), (b, "x")) for a, b in zip(names, names[1:] + "A")]
    return StateSpaceGraph(spaces, facts, max_chain=max_chain)


def test_every_calibration_call_uses_the_graph_chain_bound():
    # the chain A..F has six spaces, so only a bound of 6 reaches F from A
    g = chain_of_six(6)
    assert compute_E(g, "A", "F") == 0
    assert matrix_json(g)["E"]["A->F"] == 0.0
    assert detect_gap(g, "A", "F").width == 0.0
    short = StateSpaceGraph(g.nodes, g.facts, g.catalysts, 5)
    assert compute_E(short, "A", "F") == INF
    assert matrix_json(short)["E"]["A->F"] == "inf"


def test_chain_tables_are_built_once_per_graph(monkeypatch):
    calls = []
    real = constants._chain_table

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(constants, "_chain_table", counted)
    g = chain_of_six(6)
    # a catalyst running next to the A -> B step, so both tables are needed
    g = StateSpaceGraph(g.nodes, g.facts + [((("A", "x"), ("F", "x")),
                                             (("B", "x"), ("F", "x")))],
                        ["F"], g.max_chain)
    first = matrix_json(g)
    assert len(calls) == 2  # the simple-space table and the full one
    for _ in range(2):
        assert check_no_sinks(g).holds
        solve_additive_constants(g)
        detect_gap(g, "A", "F")
        assert matrix_json(g) == first
    assert len(calls) == 2


# --------------------------------------------------------------------- F


def test_empty_catalyst_catalog_leaves_chain_value():
    g = gap_graph()
    assert compute_F(g, "s1", "s2") == compute_E(g, "s1", "s2")


def test_catalyst_enables_cheaper_chain():
    a = node("A", {"a0": 0, "a1": 5})
    b = node("B", {"b0": 0, "b1": 5})
    k = node("K", {"k0": 0, "k1": 0}, composition=(0,))
    facts = [
        fact(("A", "a0"), ("B", "b1")),
        ((("A", "a0"), ("K", "k0")), (("B", "b0"), ("K", "k1"))),
    ]
    g = StateSpaceGraph({"A": a, "B": b, "K": k}, facts, catalysts=["K"])
    assert compute_E(g, "A", "B") == 5
    assert compute_F(g, "A", "B") == 0


def test_self_catalyzed_value_is_never_positive():
    g = gap_graph()
    for s in ("s1", "s2"):
        assert compute_F(g, s, s) <= 0


def test_infima_are_monotone_f_below_e_below_d():
    rng = random.Random(23)
    for _ in range(15):
        spaces = {}
        names = ["p", "q", "r"]
        for nm in names:
            spaces[nm] = node(nm, {
                "s%d" % k: rng.randint(0, 6) for k in range(3)
            })
        facts = []
        for a in names:
            for b in names:
                if a != b and rng.random() < 0.6:
                    sa = "s%d" % rng.randint(0, 2)
                    sb = "s%d" % rng.randint(0, 2)
                    facts.append(fact((a, sa), (b, sb)))
        g = StateSpaceGraph(spaces, facts)
        for a in names:
            for b in names:
                d = compute_D(g, a, b)
                e = compute_E(g, a, b)
                f = compute_F(g, a, b)
                assert f <= e <= d


def test_chain_subadditivity_when_terms_finite():
    g = gap_graph()
    g = StateSpaceGraph(g.nodes, g.facts, g.catalysts, 6)
    e12 = compute_E(g, "s1", "s2")
    e21 = compute_E(g, "s2", "s1")
    e11 = compute_E(g, "s1", "s1")
    assert e11 <= e12 + e21


# ------------------------------------------------------------------ sinks


def test_symmetric_instance_has_no_sinks():
    assert check_no_sinks(gap_graph()).holds


def test_one_way_reaction_graph_is_a_sink():
    nx = node("X", {"x": 0})
    ny = node("Y", {"y": 1})
    g = StateSpaceGraph({"X": nx, "Y": ny}, [fact(("X", "x"), ("Y", "y"))])
    report = check_no_sinks(g)
    assert not report.holds
    assert report.asymmetric_pairs


def test_inequality_holds_on_sink_free_instances():
    rng = random.Random(31)
    for _ in range(10):
        names = ["a", "b", "c"]
        spaces = {nm: node(nm, {"s0": rng.randint(0, 5), "s1": rng.randint(0, 5)})
                  for nm in names}
        facts = []
        for x in names:
            for y in names:
                if x != y:
                    facts.append(fact((x, "s0"), (y, "s1")))
                    facts.append(fact((y, "s0"), (x, "s1")))
        g = StateSpaceGraph(spaces, facts)
        report = check_no_sinks(g)
        if report.holds:
            for x in names:
                for y in names:
                    fxy = compute_F(g, x, y)
                    fyx = compute_F(g, y, x)
                    if fxy < INF and fyx < INF:
                        assert -fyx <= fxy + 1e-12


def simple_cycle_totals(matrix, names):
    """Total of every simple cycle of the matrix, each listed from its
    least node."""
    totals = []
    for length in range(2, len(names) + 1):
        for cycle in itertools.permutations(names, length):
            if cycle[0] != min(cycle):
                continue
            edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            if all(edge in matrix for edge in edges):
                totals.append(sum(matrix[edge] for edge in edges))
    return totals


def test_negative_cycle_matches_brute_force_on_fraction_weights():
    # weights up to about 200 in magnitude around a potential, so that a
    # cycle totals exactly 0 or a few thirds, sevenths or thirteenths, which
    # an absolute float epsilon misjudges at that magnitude
    rng = random.Random(2024)
    found = 0
    for _ in range(300):
        names = [(nm,) for nm in "abcde"[:rng.randint(2, 5)]]
        potential = {u: Fraction(rng.randint(-300, 300), rng.choice([3, 7, 13]))
                     for u in names}
        matrix = {}
        for u in names:
            for v in names:
                if u != v and rng.random() < 0.6:
                    slack = rng.choice([0, 0, 0, 1, 2, -1]) * Fraction(
                        1, rng.choice([3, 7, 13]))
                    matrix[(u, v)] = potential[v] - potential[u] + slack
        negative = any(t < 0 for t in simple_cycle_totals(matrix, names))
        cert = detect_negative_cycle(matrix, names)
        assert (cert is not None) == negative, matrix
        if cert is not None:
            found += 1
            cycle, total = cert
            assert len(set(cycle)) == len(cycle)
            assert total == sum(matrix[(u, v)] for u, v in zip(
                cycle, cycle[1:] + cycle[:1]))
            assert total < 0
    assert 0 < found < 300


def test_two_node_cycles_of_positive_total_have_no_certificate():
    # every step weight k/d with its way back 1 - k/d: each cycle totals +1
    for d in (3, 7, 13):
        for k in range(-400, 401):
            w = Fraction(k, d)
            matrix = {(("a",), ("b",)): w, (("b",), ("a",)): 1 - w}
            assert detect_negative_cycle(matrix, [("a",), ("b",)]) is None, w


@pytest.mark.parametrize("k", [1, 100001, 3 * 10 ** 9 + 1])
def test_exact_equivalence_has_no_sinks_at_any_magnitude(k):
    g = StateSpaceGraph(
        {"X": node("X", {"x": 0}), "Y": node("Y", {"y": Fraction(k, 3)})},
        [fact(("X", "x"), ("Y", "y")), fact(("Y", "y"), ("X", "x"))])
    report = check_no_sinks(g)
    assert report.holds, report
    assert solve_additive_constants(g).B == {"X": 0, "Y": Fraction(-k, 3)}


def test_float_weights_relax_only_beyond_rounding():
    # 0.1 + 0.2 - 0.3 reads 5.6e-17 in floats: a zero cycle, not a negative one
    matrix = {(("a",), ("b",)): 0.1, (("b",), ("c",)): 0.2,
              (("c",), ("a",)): -0.30000000000000004}
    assert detect_negative_cycle(matrix, [("a",), ("b",), ("c",)]) is None
    matrix[(("c",), ("a",))] = -0.3001
    cycle, total = detect_negative_cycle(matrix, [("a",), ("b",), ("c",)])
    assert sorted(cycle) == [("a",), ("b",), ("c",)] and total < 0


def float_equivalence_graph(rng, magnitude):
    """Spaces p0-p2 whose states s0 and s1 sit at U(-M, M) less a per-space
    offset from U(-M, M), with s0 -> s0 facts between every ordered pair of
    spaces: a consistent graph whose F round trips total 0 up to rounding."""
    offsets = [rng.uniform(-magnitude, magnitude) for _ in range(3)]
    nodes = {
        "p%d" % k: SpaceNode("p%d" % k, (Fraction(1),), {
            st: rng.uniform(-magnitude, magnitude) - off for st in ("s0", "s1")})
        for k, off in enumerate(offsets)
    }
    facts = [fact((a, "s0"), (b, "s0")) for a in nodes for b in nodes if a != b]
    return StateSpaceGraph(nodes, facts)


@pytest.mark.parametrize("magnitude", [1e2, 1e4, 1e10])
def test_float_equivalences_have_no_sinks_and_solve_within_tol(magnitude):
    rng = random.Random(5)
    for _ in range(300):
        g = float_equivalence_graph(rng, magnitude)
        report = check_no_sinks(g)
        assert report.holds, report
        B = solve_additive_constants(g).B
        for a in g.nodes:
            for b in g.nodes:
                assert B[a] - B[b] <= compute_F(g, a, b) + g.tol
                if a < b:
                    assert not detect_gap(g, a, b).has_gap


def test_float_negative_cycle_beyond_tol_is_still_reported():
    # the largest |S| is 1e4, so tol is 1e-8; X -> Y -> X totals -1e-3
    g = StateSpaceGraph(
        {"X": SpaceNode("X", (Fraction(1),), {"a": 1e4}),
         "Y": SpaceNode("Y", (Fraction(1),), {"b": 5000.0, "c": 5000.001})},
        [fact(("X", "a"), ("Y", "b")), fact(("Y", "c"), ("X", "a"))])
    report = check_no_sinks(g)
    assert not report.holds
    cycle, total = report.negative_cycle
    assert sorted(cycle) == [("X",), ("Y",)]
    assert total == pytest.approx(-1e-3)
    with pytest.raises(InfeasibleConstantsError):
        solve_additive_constants(g)


# ----------------------------------------------------------------- solver


def test_all_zero_bounds_make_constants_equal():
    p = node("p", {"u": 0})
    q = node("q", {"u": 0})
    facts = [fact(("p", "u"), ("q", "u")), fact(("q", "u"), ("p", "u"))]
    sol = solve_additive_constants(StateSpaceGraph({"p": p, "q": q}, facts))
    assert sol.B["p"] == sol.B["q"]


def test_gap_instance_solution_and_width():
    g = gap_graph()
    sol = solve_additive_constants(g)
    diff = sol.B["s1"] - sol.B["s2"]
    assert 3 <= diff <= 5
    gap = detect_gap(g, "s1", "s2")
    assert gap.has_gap
    assert gap.width == 2


def test_physically_generated_instances_report_no_gap():
    # relations generated from one global entropy scale always pin the
    # constant difference exactly: the bounds touch and no gap remains
    rng = random.Random(41)
    for _ in range(10):
        b_true = {"A": rng.randint(-3, 3), "B": rng.randint(-3, 3)}
        tables = {
            nm: {"s%d" % k: Fraction(k - b_true[nm]) for k in range(4)}
            for nm in b_true
        }
        star = {
            (nm, st): v + b_true[nm]
            for nm, tbl in tables.items() for st, v in tbl.items()
        }
        facts = [
            fact((n1, s1), (n2, s2))
            for (n1, s1), v1 in star.items()
            for (n2, s2), v2 in star.items()
            if (n1, s1) != (n2, s2) and v1 <= v2
        ]
        g = StateSpaceGraph(
            {nm: node(nm, tables[nm]) for nm in tables}, facts
        )
        gap = detect_gap(g, "A", "B")
        assert not gap.has_gap
        assert gap.width == 0


def test_no_gap_when_bounds_touch():
    na = node("A", {"x": 0, "y": 1})
    nb = node("B", {"x": 0, "y": 1})
    facts = [fact(("A", "x"), ("B", "x")), fact(("B", "y"), ("A", "y"))]
    g = StateSpaceGraph({"A": na, "B": nb}, facts)
    gap = detect_gap(g, "A", "B")
    assert not gap.has_gap
    assert gap.width == 0


def test_reaction_pins_composite_and_leaves_noble_gauge_free():
    h2 = node("h2", {"g0": 0, "g1": 2}, composition=(2, 0))
    o2 = node("o2", {"g0": 0, "g1": 3}, composition=(0, 16))
    water = node("water", {"l0": 1, "l1": 4}, composition=(2, 16))
    neon = node("neon", {"n0": 0}, composition=(0, 0))
    facts = [
        ((("h2", "g0"), ("o2", "g0")), (("water", "l1"),)),
        ((("water", "l0"),), (("h2", "g0"), ("o2", "g1"))),
    ]
    g = StateSpaceGraph(
        {"h2": h2, "o2": o2, "water": water, "neon": neon}, facts
    )
    sol = solve_additive_constants(g)
    bh, bo, bw = sol.B["h2"], sol.B["o2"], sol.B["water"]
    assert bh + bo - bw <= 4
    assert bw - bh - bo <= 2
    assert sol.component_id["neon"] != sol.component_id["water"]
    assert "neon" in sol.gauges


def test_infeasible_cycle_reports_certificate():
    nx = node("X", {"x": 0, "y": 1})
    ny = node("Y", {"x": 0, "y": 1})
    facts = [fact(("X", "y"), ("Y", "x")), fact(("Y", "y"), ("X", "x"))]
    g = StateSpaceGraph({"X": nx, "Y": ny}, facts)
    with pytest.raises(InfeasibleConstantsError) as err:
        solve_additive_constants(g)
    assert set(err.value.cycle) == {"X", "Y"}
    assert err.value.total < 0


def test_component_shift_preserves_feasibility():
    g = gap_graph()
    sol = solve_additive_constants(g)
    shifted = {s: v + 17 for s, v in sol.B.items()}
    fab = compute_F(g, "s1", "s2")
    fba = compute_F(g, "s2", "s1")
    assert shifted["s1"] - shifted["s2"] <= fab
    assert shifted["s2"] - shifted["s1"] <= fba


def test_composite_constant_is_exact_linear_combination():
    g = gap_graph()
    sol = solve_additive_constants(g)
    combo = composite_B(sol, [(Fraction(1, 2), "s1"), (Fraction(3), "s2")])
    assert combo == Fraction(1, 2) * sol.B["s1"] + 3 * sol.B["s2"]
    assert isinstance(combo, Fraction)


# ------------------------------------------------------- offset criterion


def tight_two_space_instance():
    """Ground-truth constants (0, -2): every cross pair with equal shifted
    entropy is declared, so the one-step infimum is attained exactly."""
    b_true = {"A": 0, "B": -2}
    tables = {
        "A": {"a%d" % k: k for k in range(4)},
        "B": {"b%d" % k: k + 2 for k in range(4)},   # shifted grid: S* = k
    }
    spaces = {
        nm: node(nm, tbl) for nm, tbl in tables.items()
    }
    star = {}
    for nm, tbl in tables.items():
        for st, v in tbl.items():
            star[(nm, st)] = v + b_true[nm]
    facts = []
    for (n1, s1), v1 in star.items():
        for (n2, s2), v2 in star.items():
            if v1 <= v2 and (n1, s1) != (n2, s2):
                facts.append(fact((n1, s1), (n2, s2)))
    g = StateSpaceGraph(spaces, facts)

    def accessible(a, x, b, y):
        return star[(a, x)] <= star[(b, y)]

    return g, accessible


def test_offset_criterion_matches_ground_truth_relation():
    g, accessible = tight_two_space_instance()
    report = check_entropy_offset_criterion(g, accessible)
    assert report.holds
    assert report.checked == 64


def test_offset_criterion_reports_planted_mismatch():
    g, accessible = tight_two_space_instance()

    def broken(a, x, b, y):
        if (a, x, b, y) == ("A", "a0", "B", "b3"):
            return not accessible(a, x, b, y)
        return accessible(a, x, b, y)

    report = check_entropy_offset_criterion(g, broken)
    assert not report.holds
    assert ("A", "a0", "B", "b3") == report.mismatches[0][:4]


def test_same_space_offset_reduces_to_monotonicity():
    entropy = {"a%d" % k: k for k in range(4)}
    facts = [fact(("A", x), ("A", y)) for x in entropy for y in entropy
             if x != y and entropy[x] <= entropy[y]]
    g = StateSpaceGraph({"A": node("A", entropy)}, facts)
    assert compute_F(g, "A", "A") == 0
    report = check_entropy_offset_criterion(
        g, lambda a, x, b, y: entropy[x] <= entropy[y])
    assert report.holds
    assert report.checked == 16


# ------------------------------------------------------------------- misc


def test_composition_conservation_enforced_by_loader():
    with pytest.raises(InputFormatError):
        StateSpaceGraph(
            {
                "A": node("A", {"x": 0}, composition=(1,)),
                "B": node("B", {"y": 0}, composition=(2,)),
            },
            [fact(("A", "x"), ("B", "y"))],
        )


def test_matrix_json_uses_inf_sentinel():
    nx = node("X", {"x": 0})
    ny = node("Y", {"y": 1})
    g = StateSpaceGraph({"X": nx, "Y": ny}, [fact(("X", "x"), ("Y", "y"))])
    doc = matrix_json(g)
    assert doc["D"]["Y->X"] == "inf"
    assert doc["D"]["X->Y"] == 1.0


def test_graph_from_json_round_trip():
    doc = {
        "spaces": [
            {"id": "A", "composition": ["1"], "entropy": {"x": "0", "y": "3/2"}},
            {"id": "B", "composition": ["1"], "entropy": {"z": "1"}},
        ],
        "facts": [[[["A", "x"]], [["B", "z"]]]],
        "catalysts": [],
    }
    g = graph_from_json(doc)
    assert compute_D(g, "A", "B") == 1
    assert g.nodes["A"].entropy["y"] == Fraction(3, 2)


def test_graph_from_json_rejects_bad_element_amounts():
    # summed pairwise, (1, 1) + (1,) would read as (2,): the fact would pass
    # as conserving element content
    uneven = {
        "spaces": [
            {"id": "A", "composition": ["1", "1"], "entropy": {"x": "0"}},
            {"id": "B", "composition": ["1"], "entropy": {"y": "0"}},
            {"id": "C", "composition": ["2"], "entropy": {"z": "1"}},
        ],
        "facts": [[[["A", "x"], ["B", "y"]], [["C", "z"]]]],
    }
    with pytest.raises(InputFormatError, match="1 and 2 element amounts"):
        graph_from_json(uneven)
    spaces = {"A": node("A", {"x": 0}, (1, 1)), "B": node("B", {"y": 0}),
              "C": node("C", {"z": 1}, (2,))}
    with pytest.raises(InputFormatError, match="1 and 2 element amounts"):
        StateSpaceGraph(spaces, [((("A", "x"), ("B", "y")), (("C", "z"),))])
    negative = {
        "spaces": [{"id": "A", "composition": ["-1"], "entropy": {"x": "0"}}],
        "facts": [],
    }
    with pytest.raises(InputFormatError, match="negative element amount"):
        graph_from_json(negative)


def test_declaration_order_does_not_change_d_e_f():
    rng = random.Random(21)
    for _ in range(30):
        names = ["A", "B", "C", "K"]
        spaces = {
            nm: node(nm, {"s%d" % k: rng.randint(-4, 4) for k in range(3)})
            for nm in names
        }

        def side():
            return tuple(
                (nm, "s%d" % rng.randint(0, 2))
                for nm in rng.sample(names, rng.choice([1, 1, 2]))
            )

        facts = []
        while len(facts) < 10:
            left, right = side(), side()
            if len(left) == len(right):
                facts.append((left, right))
        shuffled = facts[:]
        rng.shuffle(shuffled)
        g1 = StateSpaceGraph(spaces, facts, catalysts=["K", "C"])
        g2 = StateSpaceGraph(spaces, shuffled, catalysts=["C", "K"])
        assert g1.steps == g2.steps
        for a in names:
            for b in names:
                for fn in (compute_D, compute_E, compute_F):
                    assert fn(g1, a, b) == fn(g2, a, b)
