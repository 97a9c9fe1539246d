import math
from fractions import Fraction

import pytest

from entropy_engine.entropy import (
    EntropyTable,
    calibrate_multiplicative,
    compound_entropy,
    construct_entropy,
    entropy_table_csv,
    find_calibrators,
    fit_affine,
    verify_entropy_principle,
)
from entropy_engine.errors import (
    CalibratorError,
    ComparabilityError,
    DegenerateTableError,
    NoReferencePairError,
)
from entropy_engine.relation import OracleRelation, build_relation, close
from entropy_engine.states import compound, make_space, single
from relation_fixtures import relation_from_oracle

HALF = Fraction(1, 2)


def chain_relation(states="xyz"):
    g = make_space("G", [1], list(states))
    facts = [
        (single("G", a), single("G", b))
        for a, b in zip(states, states[1:])
    ]
    return close(build_relation([g], facts, [Fraction(1)]))


def gas_grid_oracle(n=6, moles=1.0):
    """Ideal-gas entropy values on an n x n energy/volume grid."""
    states, sigma = [], {}
    for i in range(n):
        for j in range(n):
            u = 1.0 + 3.0 * i / (n - 1)
            v = 1.0 + 2.0 * j / (n - 1)
            sid = "s%d_%d" % (i, j)
            states.append(sid)
            sigma[("G", sid)] = moles * math.log(v * u ** 1.5)
    g = make_space("G", [1], states)
    return g, states, sigma


# ----------------------------------------------------------- construction


def test_reference_states_pin_zero_and_one():
    rel = chain_relation()
    table = construct_entropy(rel, "G", "x", "z", resolution=Fraction(1))
    assert table.values["x"] == 0
    assert table.values["z"] == 1


def test_missing_reference_pair_raises():
    rel = chain_relation("xy")
    with pytest.raises(NoReferencePairError):
        construct_entropy(rel, "G", "y", "x")


def test_incomparable_mixture_reports_witness():
    # two disjoint chains: the mixture of the refs is incomparable with the
    # states of the other chain
    g = make_space("G", [1], ["a", "b", "c", "d"])
    facts = [(single("G", "a"), single("G", "b")),
             (single("G", "c"), single("G", "d"))]
    rel = close(build_relation([g], facts, [Fraction(1)]))
    with pytest.raises(ComparabilityError):
        construct_entropy(rel, "G", "a", "b", resolution=Fraction(1))


def test_oracle_grid_round_trip_matches_sigma():
    g, states, sigma = gas_grid_oracle()
    rel = OracleRelation([g], sigma)
    lo = min(states, key=lambda s: sigma[("G", s)])
    hi = max(states, key=lambda s: sigma[("G", s)])
    table = construct_entropy(rel, "G", lo, hi, resolution=Fraction(1, 128))
    a, b, residual = fit_affine({s: sigma[("G", s)] for s in states}, table.values)
    assert a > 0
    assert residual <= 2.0 / 128.0


def test_bisection_mode_reaches_fine_resolution():
    g, states, sigma = gas_grid_oracle(4)
    rel = OracleRelation([g], sigma)
    lo = min(states, key=lambda s: sigma[("G", s)])
    hi = max(states, key=lambda s: sigma[("G", s)])
    assert rel.search_mode == "bisect"
    table = construct_entropy(rel, "G", lo, hi, resolution=Fraction(1, 2 ** 20))
    a, b, residual = fit_affine({s: sigma[("G", s)] for s in states}, table.values)
    assert residual <= 2.0 / 2 ** 20 + 1e-12


def test_bisection_lists_the_states_clipped_at_the_window_top():
    g = make_space("G", [1], ["lo", "mid", "top", "hi", "far"])
    sigma = {("G", "lo"): Fraction(0), ("G", "mid"): HALF, ("G", "hi"): Fraction(1),
             ("G", "top"): Fraction(3), ("G", "far"): Fraction(5)}
    table = construct_entropy(OracleRelation([g], sigma), "G", "lo", "hi",
                              lambda_hi=Fraction(2))
    assert table.clipped == ("far", "top")
    assert table.values["top"] == table.values["far"] == 2.0
    assert table.values["mid"] == 0.5
    grid_table = construct_entropy(chain_relation(), "G", "x", "z",
                                   resolution=Fraction(1), lambda_hi=Fraction(1))
    assert grid_table.clipped == ()


def test_grid_mode_lists_the_states_clipped_at_the_window_top():
    # z is above the high reference y, but no mixture above y is in the
    # universe: the window shows z = 1 = y and cannot show more
    g = make_space("G", [1], ["x", "y", "z"])
    x, y, z = (single("G", s) for s in "xyz")
    mix = compound([(HALF, "G", "x"), (HALF, "G", "z")])
    grid = [HALF, Fraction(1)]
    window = dict(resolution=HALF, lambda_lo=Fraction(0), lambda_hi=Fraction(1))
    for facts in ([(x, y), (y, z)], [(x, y), (y, z), (mix, y), (y, mix)]):
        rel = close(build_relation([g], facts, grid))
        table = construct_entropy(rel, "G", "x", "y", **window)
        assert table.values == {"x": 0, "y": 1, "z": 1}
        assert table.clipped == ("z",)
    # with z as the high reference every value is inside the window
    table = construct_entropy(rel, "G", "x", "z", **window)
    assert table.values == {"x": 0, "y": HALF, "z": 1}
    assert table.clipped == ()


# ------------------------------------------------------ entropy principle


def test_principle_passes_on_monotone_table():
    rel = chain_relation()
    tables = {"G": construct_entropy(rel, "G", "x", "z", resolution=Fraction(1))}
    report = verify_entropy_principle(rel, tables)
    assert report.holds
    assert report.facts_checked > 0


def test_principle_flags_equivalence_mismatch():
    g = make_space("G", [1], ["x", "y"])
    facts = [(single("G", "x"), single("G", "y")),
             (single("G", "y"), single("G", "x"))]
    rel = close(build_relation([g], facts, [Fraction(1)]))
    tables = {"G": EntropyTable("G", {"x": Fraction(0), "y": Fraction(5)},
                                "x", "y", Fraction(1, 128))}
    report = verify_entropy_principle(rel, tables)
    assert not report.holds
    assert any(v.kind == "equivalence" for v in report.violations)


def test_principle_zero_violations_on_oracle_relation():
    g, states, sigma = gas_grid_oracle(3)
    universe = [single("G", s) for s in states]
    rel = relation_from_oracle([g], sigma, universe)
    oracle = OracleRelation([g], sigma)
    lo = min(states, key=lambda s: sigma[("G", s)])
    hi = max(states, key=lambda s: sigma[("G", s)])
    table = construct_entropy(oracle, "G", lo, hi, resolution=Fraction(1, 128))
    report = verify_entropy_principle(rel, {"G": table})
    assert report.holds


def test_principle_skips_scale_mismatched_facts():
    g = make_space("G", [1], ["x"])
    rel = close(build_relation([g], [], [HALF, Fraction(1)]), max_parts=2)
    tables = {"G": EntropyTable("G", {"x": Fraction(0)}, "x", "x",
                                Fraction(1, 128))}
    report = verify_entropy_principle(rel, tables)
    # facts between a state and its half-scaled copy never occur; splitting
    # facts preserve totals, so nothing is skipped here
    assert report.skipped_scale_mismatch == 0


def test_principle_report_lists_each_inequality_with_margin():
    rel = chain_relation()
    tables = {"G": construct_entropy(rel, "G", "x", "z", resolution=Fraction(1))}
    report = verify_entropy_principle(rel, tables)
    doc = report.to_json()
    assert len(doc["inequalities"]) == report.facts_checked
    assert all("margin" in entry for entry in doc["inequalities"])
    kinds = {entry["kind"] for entry in doc["inequalities"]}
    assert kinds == {"equivalence", "monotonicity"}


def test_principle_tolerance_boundary():
    # one-part facts of scale 1 at resolution 1/64: tol = 1/64 * (1 + 1) * max|a|
    tol, step = Fraction(1, 32), Fraction(1, 128)
    cases = [  # margin, equivalence, violates alone, violates with max|a| = 2
        (-tol, False, False, False),
        (-tol - step, False, True, False),
        (-2 * tol, False, True, False),
        (-2 * tol - step, False, True, True),
        (tol, True, False, False),
        (tol + step, True, True, False),
        (2 * tol, True, True, False),
        (2 * tol + step, True, True, True),
    ]
    names = ["%s%d" % (side, i) for i in range(len(cases)) for side in "lr"]
    g, h = make_space("G", [1], names), make_space("H", [1], ["h"])
    values = {name: Fraction(0) for name in names}
    facts = []
    for i, (margin, equivalence, _alone, _scaled) in enumerate(cases):
        values["r%d" % i] = margin
        facts.append((single("G", "l%d" % i), single("G", "r%d" % i)))
        if equivalence:
            facts.append((single("G", "r%d" % i), single("G", "l%d" % i)))
    rel = build_relation([g, h], facts, [Fraction(1)])
    tables = {
        "G": EntropyTable("G", values, "l0", "r0", Fraction(1, 64)),
        "H": EntropyTable("H", {"h": Fraction(0)}, "h", "h", Fraction(1, 64)),
    }
    for multipliers, column in [(None, 2), ({"G": Fraction(1), "H": Fraction(2)}, 3)]:
        report = verify_entropy_principle(rel, tables, multipliers=multipliers)
        flagged = {(v.kind, v.left.parts[0][1]) for v in report.violations}
        expected = set()
        for i, case in enumerate(cases):
            if case[column]:
                kind = "equivalence" if case[1] else "monotonicity"
                expected.add((kind, "l%d" % i))
                if case[1]:
                    expected.add((kind, "r%d" % i))
        assert flagged == expected
        margins = {(str(l), str(r)): m for l, r, _k, m in report.entries}
        assert margins["(1 G.l1)", "(1 G.r1)"] == float(-tol - step)


def test_compound_entropy_is_scale_weighted():
    tables = {"G": construct_entropy(chain_relation(), "G", "x", "z",
                                     resolution=Fraction(1))}
    state = compound([(HALF, "G", "x"), (HALF, "G", "z")])
    assert compound_entropy(tables, state) == HALF


# ---------------------------------------------------------------- affine


def test_fit_affine_identity():
    t = {"a": Fraction(0), "b": HALF, "c": Fraction(1)}
    assert fit_affine(t, dict(t)) == (1, 0, 0)


def test_fit_affine_recovers_pure_rescaling():
    t1 = {"a": Fraction(0), "b": HALF, "c": Fraction(1)}
    t2 = {k: 29 * v for k, v in t1.items()}
    a, b, residual = fit_affine(t1, t2)
    assert (a, b, residual) == (29, 0, 0)


def test_fit_affine_degenerate_table():
    with pytest.raises(DegenerateTableError):
        fit_affine({"a": 1, "b": 1}, {"a": 0, "b": 1})


def test_reference_change_is_affine():
    g, states, sigma = gas_grid_oracle(5)
    rel = OracleRelation([g], sigma)
    ranked = sorted(states, key=lambda s: sigma[("G", s)])
    res = Fraction(1, 128)
    t1 = construct_entropy(rel, "G", ranked[0], ranked[-1], resolution=res)
    t2 = construct_entropy(rel, "G", ranked[1], ranked[-2], resolution=res)
    a, b, residual = fit_affine(t1.values, t2.values)
    assert a > 0
    assert residual <= 2 * float(res)


# ------------------------------------------------------------ calibrators


def two_space_table_relation():
    """Two spaces with rational entropy oracles and the same element content."""
    g = make_space("G", [1], ["g0", "g1", "g2"])
    h = make_space("H", [1], ["h0", "h1"])
    sigma = {("G", "g0"): Fraction(0), ("G", "g1"): Fraction(1),
             ("G", "g2"): Fraction(2),
             ("H", "h0"): Fraction(5), ("H", "h1"): Fraction(6)}
    universe = [single(sp, st) for sp, st in sigma]
    universe += [
        single("G", a).combine(single("H", b))
        for a in ("g0", "g1", "g2") for b in ("h0", "h1")
    ]
    rel = relation_from_oracle([g, h], sigma, universe)
    return rel, sigma


def test_find_calibrators_matches_oracle_differences():
    rel, sigma = two_space_table_relation()
    x0, x1, y0, y1 = find_calibrators(rel, "G", "H")
    assert sigma[("G", x1)] - sigma[("G", x0)] == sigma[("H", y1)] - sigma[("H", y0)]


def test_find_calibrators_two_copies_of_same_space():
    g = make_space("G", [1], ["a", "b"])
    h = make_space("H", [1], ["a", "b"])
    sigma = {("G", "a"): Fraction(0), ("G", "b"): Fraction(1),
             ("H", "a"): Fraction(0), ("H", "b"): Fraction(1)}
    universe = [single(sp, st) for sp, st in sigma]
    universe += [
        single("G", a).combine(single("H", b)) for a in "ab" for b in "ab"
    ]
    rel = relation_from_oracle([g, h], sigma, universe)
    assert find_calibrators(rel, "G", "H") == ("a", "b", "a", "b")


def test_find_calibrators_without_cross_facts_raises():
    g = make_space("G", [1], ["a", "b"])
    h = make_space("H", [1], ["c", "d"])
    facts = [(single("G", "a"), single("G", "b")),
             (single("H", "c"), single("H", "d"))]
    rel = close(build_relation([g, h], facts, [Fraction(1)]))
    with pytest.raises(CalibratorError):
        find_calibrators(rel, "G", "H")


class _Table:
    def __init__(self, values):
        self.values = values


def test_calibrate_identical_tables_gives_unit_ratio():
    t = _Table({"a": Fraction(0), "b": Fraction(1)})
    result = calibrate_multiplicative(
        {"G": t, "H": _Table(dict(t.values))},
        [("G", "H", "a", "b", "a", "b")],
    )
    assert result.a == {"G": 1, "H": 1}
    assert result.residual == 0


def test_calibrate_prescaled_table_gets_inverse_ratio():
    t1 = _Table({"a": Fraction(0), "b": Fraction(1)})
    t2 = _Table({"a": Fraction(0), "b": Fraction(3)})
    result = calibrate_multiplicative(
        {"G": t1, "H": t2}, [("G", "H", "a", "b", "a", "b")]
    )
    assert result.a["H"] == Fraction(1, 3)


def test_calibrate_two_gas_ratio_matches_oracle_units():
    # the same physical states tabulated in different entropy units
    rel, sigma = two_space_table_relation()
    g = make_space("G", [1], ["g0", "g1", "g2"])
    h = make_space("H", [1], ["h0", "h1"])
    oracle = OracleRelation([g, h], sigma)
    res = Fraction(1, 128)
    tg = construct_entropy(oracle, "G", "g0", "g2", resolution=res)
    th = construct_entropy(oracle, "H", "h0", "h1", resolution=res)
    x0, x1, y0, y1 = find_calibrators(rel, "G", "H")
    result = calibrate_multiplicative(
        {"G": tg, "H": th}, [("G", "H", x0, x1, y0, y1)]
    )
    # sigma differences: refs span 2 units in G, 1 unit in H, so the tables
    # measure 1 oracle unit as 1/2 vs 1; the ratio must undo that
    assert abs(result.a["H"] - HALF) <= 2 * res


def test_additivity_holds_after_multiplicative_calibration():
    # one oracle scale seen through two different table gauges: after fixing
    # the ratio, weighted sums order every product fact consistently
    rel, sigma = two_space_table_relation()
    g = make_space("G", [1], ["g0", "g1", "g2"])
    h = make_space("H", [1], ["h0", "h1"])
    oracle = OracleRelation([g, h], sigma)
    res = Fraction(1, 128)
    tables = {
        "G": construct_entropy(oracle, "G", "g0", "g2", resolution=res),
        "H": construct_entropy(oracle, "H", "h0", "h1", resolution=res),
    }
    calibrators = [("G", "H") + find_calibrators(rel, "G", "H")[0:4]]
    result = calibrate_multiplicative(tables, calibrators)
    report = verify_entropy_principle(rel, tables, multipliers=result.a)
    assert report.holds
    assert report.facts_checked > 0


def test_calibrate_degenerate_calibrator_raises():
    t = _Table({"a": Fraction(0), "b": Fraction(0)})
    with pytest.raises(CalibratorError):
        calibrate_multiplicative(
            {"G": t, "H": _Table({"a": Fraction(0), "b": Fraction(1)})},
            [("G", "H", "a", "b", "a", "b")],
        )


# ---------------------------------------------------------------- outputs


def test_entropy_table_csv_format():
    rel = chain_relation()
    table = construct_entropy(rel, "G", "x", "z", resolution=Fraction(1))
    text = entropy_table_csv({"G": table})
    lines = text.strip().split("\n")
    assert lines[0] == "space,state,S,resolution"
    assert len(lines) == 4
    assert lines[1] == "G,x,0,1"


# ------------------------------------------------------------- invariants


def test_monotone_encoding_on_oracle_grid():
    g, states, sigma = gas_grid_oracle(4)
    rel = OracleRelation([g], sigma)
    ranked = sorted(states, key=lambda s: sigma[("G", s)])
    res = Fraction(1, 128)
    table = construct_entropy(rel, "G", ranked[0], ranked[-1], resolution=res)
    for a in states:
        for b in states:
            if sigma[("G", a)] < sigma[("G", b)]:
                assert table.values[a] < table.values[b] + res


def test_extensivity_of_weighted_sums():
    rel = chain_relation()
    tables = {"G": construct_entropy(rel, "G", "x", "z", resolution=Fraction(1))}
    for st in ("x", "y", "z"):
        lam = HALF
        scaled = single("G", st, lam)
        assert compound_entropy(tables, scaled) == lam * tables["G"].values[st]
