"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -s` to see the
lines; each criterion is a single test."""

import math
import random
from fractions import Fraction

from entropy_engine.constants import (
    SpaceNode,
    StateSpaceGraph,
    chain_min,
    check_entropy_offset_criterion,
    check_no_sinks,
    composite_B,
    compute_D,
    compute_E,
    compute_F,
    detect_gap,
    solve_additive_constants,
)
from entropy_engine.entropy import construct_entropy, fit_affine
from entropy_engine.relation import (
    OracleRelation,
    accessible,
    build_relation,
    close,
    run_axiom_scan,
)
from entropy_engine.simple import (
    CROSSING,
    check_nesting,
    integrate_adiabat,
    monatomic_ideal_gas,
    point,
    sqrt_singularity_model,
    van_der_waals_gas,
)
from entropy_engine.states import make_space, single
from entropy_engine.thermal import (
    ThermalJoin,
    check_energy_flow,
    check_zeroth_law,
    temperature,
    thermal_split,
)

HALF = Fraction(1, 2)
RES = Fraction(1, 128)


def report(number, ok, detail):
    line = "criterion %02d %s - %s" % (number, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def gas_grid(n, u_range=(1.0, 4.0), v_range=(1.0, 3.0), moles=1.0):
    states, sigma = [], {}
    for i in range(n):
        for j in range(n):
            u = u_range[0] + (u_range[1] - u_range[0]) * i / (n - 1)
            v = v_range[0] + (v_range[1] - v_range[0]) * j / (n - 1)
            sid = "s%d_%d" % (i, j)
            states.append(sid)
            sigma[("G", sid)] = moles * math.log(v * u ** 1.5)
    return make_space("G", [1], states), states, sigma


def test_criterion_01_oracle_round_trip():
    g, states, sigma = gas_grid(20)
    rel = OracleRelation([g], sigma)
    lo = min(states, key=lambda s: sigma[("G", s)])
    hi = max(states, key=lambda s: sigma[("G", s)])
    table = construct_entropy(rel, "G", lo, hi, resolution=RES)
    a, b, residual = fit_affine(
        {s: sigma[("G", s)] for s in states}, table.values
    )
    ok = a > 0 and residual <= 2.0 / 128.0
    report(1, ok, "oracle round trip on 20x20 grid: slope %.4f, max residual "
                  "%.6f (allowed %.6f)" % (a, residual, 2.0 / 128.0))


def test_criterion_02_axiom_closure_randomized():
    grid = [HALF, Fraction(1)]
    bad = 0
    not_idempotent = 0
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        states = [chr(ord("a") + k) for k in range(n)]
        g = make_space("G", [1], states)
        facts = [
            (single("G", rng.choice(states)), single("G", rng.choice(states)))
            for _ in range(rng.randint(2, 3))
        ]
        max_parts = 3 if seed % 4 == 0 else 2
        closed = close(build_relation([g], facts, grid),
                       max_parts=max_parts, budget=300000)
        reports = run_axiom_scan(closed, max_parts=max_parts)
        bad += sum(len(rep.violations) for rep in reports.values())
        if close(closed, max_parts=max_parts).facts != closed.facts:
            not_idempotent += 1
    ok = bad == 0 and not_idempotent == 0
    report(2, ok, "100 random closures: %d axiom/cancellation violations, "
                  "%d non-idempotent" % (bad, not_idempotent))


def test_criterion_03_reference_independence():
    g, states, sigma = gas_grid(10)
    rel = OracleRelation([g], sigma)
    ranked = sorted(states, key=lambda s: sigma[("G", s)])
    ref_pairs = [
        (ranked[0], ranked[-1]),
        (ranked[1], ranked[-2]),
        (ranked[2], ranked[-1]),
        (ranked[0], ranked[-3]),
        (ranked[3], ranked[-4]),
    ]
    tables = [
        construct_entropy(rel, "G", lo, hi, resolution=RES)
        for lo, hi in ref_pairs
    ]
    worst = 0.0
    slopes_ok = True
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            a, b, residual = fit_affine(tables[i].values, tables[j].values)
            worst = max(worst, float(residual))
            slopes_ok = slopes_ok and a > 0
    ok = slopes_ok and worst <= 2.0 / 128.0
    report(3, ok, "5 reference pairs, 10 pairwise fits: positive slopes %s, "
                  "worst residual %.6f (allowed %.6f)"
                  % (slopes_ok, worst, 2.0 / 128.0))


def test_criterion_04_adiabat_ode_drift():
    gas = monatomic_ideal_gas()
    x = point(1.5, 1.0)
    forward = integrate_adiabat(gas, x, [(2.0,)], step=1e-3, tol=None)
    inv = x.U * x.V[0] ** (2.0 / 3.0)
    drift = max(
        abs(s.U * s.V[0] ** (2.0 / 3.0) - inv) / inv for s in forward.samples
    )
    loop = integrate_adiabat(gas, x, [(2.0,), (1.0,)], step=1e-3, tol=None)
    ret = abs(loop.samples[-1].U - x.U)
    ok = drift <= 1e-6 and ret <= 1e-7
    report(4, ok, "invariant drift %.3g (allowed 1e-6), return gap %.3g "
                  "(allowed 1e-7)" % (drift, ret))


def test_criterion_05_nesting_trichotomy():
    rng = random.Random(5)
    crossings = 0
    cases_seen = {}
    for model in (monatomic_ideal_gas(), van_der_waals_gas()):
        lo, hi = model.domain.lo, model.domain.hi
        for _ in range(1000):
            a = point(
                lo[0] + (0.1 + 0.8 * rng.random()) * (hi[0] - lo[0]),
                lo[1] + (0.1 + 0.8 * rng.random()) * (hi[1] - lo[1]),
            )
            b = point(
                lo[0] + (0.1 + 0.8 * rng.random()) * (hi[0] - lo[0]),
                lo[1] + (0.1 + 0.8 * rng.random()) * (hi[1] - lo[1]),
            )
            result = check_nesting(model, a, b)
            cases_seen[result.case] = cases_seen.get(result.case, 0) + 1
            if result.violation:
                crossings += 1
    adv = check_nesting(
        sqrt_singularity_model(), point(1.0, 0.5), point(1.0001, 0.3)
    )
    ok = crossings == 0 and adv.case == CROSSING and adv.violation
    report(5, ok, "2000 random pairs: cases %s, %d crossings (want 0); "
                  "adversarial model reports %s" %
                  (cases_seen, crossings, adv.case))


def test_criterion_06_thermal_split_and_flow():
    g1 = monatomic_ideal_gas(1)
    g2 = monatomic_ideal_gas(2)
    split = thermal_split(ThermalJoin(g1, g2), 6.0, (1.0,), (1.0,))
    ratio_err = max(abs(split.X1.U - 2.0) / 2.0, abs(split.X2.U - 4.0) / 4.0)
    t1 = temperature(g1, split.X1)
    t2 = temperature(g2, split.X2)
    t_err = abs(t1 - t2) / max(t1, t2)
    rng = random.Random(6)
    sign_violations = 0
    for _ in range(100):
        a = point(1.0 + 5.0 * rng.random(), 1.0 + 3.0 * rng.random())
        b = point(1.5 + 6.5 * rng.random(), 1.0 + 3.0 * rng.random())
        if not check_energy_flow(g1, a, g2, b).ok:
            sign_violations += 1
    ok = ratio_err <= 1e-9 and t_err <= 1e-6 and sign_violations == 0
    report(6, ok, "moles (1,2) split ratio error %.2e (allowed 1e-9), "
                  "temperature gap %.2e (allowed 1e-6), %d/100 flow sign "
                  "violations" % (ratio_err, t_err, sign_violations))


def test_criterion_07_zeroth_law_transitivity():
    g1 = monatomic_ideal_gas(1)
    g2 = monatomic_ideal_gas(2)
    vdw = van_der_waals_gas()
    rng = random.Random(7)
    triples = []
    for _ in range(200):
        t = 1.0 + 1.5 * rng.random()
        v1 = 1.0 + 3.0 * rng.random()
        v2 = 1.0 + 2.5 * rng.random()
        v3 = 1.0 + 3.0 * rng.random()
        x1 = point(1.5 * t, v1)                  # one-mole gas at T = t
        x2 = point(1.5 * t - 0.2 / v2, v2)       # van der Waals state at t
        x3 = point(3.0 * t, v3)                  # two-mole gas at T = t
        triples.append(((g1, x1), (vdw, x2), (g2, x3)))
    rep = check_zeroth_law(triples, tol=1e-9)
    ok = rep.holds and rep.checked == 200
    report(7, ok, "200 temperature-matched triples: %d checked, %d skipped, "
                  "%d violations" % (rep.checked, rep.non_equilibrium,
                                     len(rep.violations)))


def _random_d_graph(rng):
    n = rng.randint(2, 5)
    names = [("n%d" % k,) for k in range(n)]
    matrix = {}
    for u in names:
        for v in names:
            if rng.random() < 0.5:
                matrix[(u, v)] = rng.randint(-3, 6)
    return names, matrix


def _brute_chain(matrix, names, a, b, max_chain):
    best = 0 if a == b else math.inf
    frontier = [(a, 0)]
    for _ in range(max_chain - 1):
        nxt = []
        for node, cost in frontier:
            for v in names:
                w = matrix.get((node, v))
                if w is None:
                    continue
                nxt.append((v, cost + w))
                if v == b and cost + w < best:
                    best = cost + w
        frontier = nxt
    return best


def _random_instance_graph(rng, n_spaces=3, n_states=3):
    names = ["g%d" % k for k in range(n_spaces)]
    spaces = {
        nm: SpaceNode(nm, (Fraction(1),), {
            "s%d" % k: Fraction(rng.randint(0, 6)) for k in range(n_states)
        })
        for nm in names
    }
    facts = []
    for a in names:
        for b in names:
            if a != b and rng.random() < 0.7:
                facts.append((
                    ((a, "s%d" % rng.randint(0, n_states - 1)),),
                    ((b, "s%d" % rng.randint(0, n_states - 1)),),
                ))
    return names, StateSpaceGraph(spaces, facts)


def test_criterion_08_chain_infima():
    rng = random.Random(8)
    mismatches = 0
    for _ in range(30):
        names, matrix = _random_d_graph(rng)
        for a in names:
            for b in names:
                got = chain_min(matrix, names, a, b, 4)
                want = _brute_chain(matrix, names, a, b, 4)
                if got != want:
                    mismatches += 1
    order_bad = 0
    eq29_bad = 0
    for _ in range(15):
        names, graph = _random_instance_graph(rng)
        for a in names:
            for b in names:
                d = compute_D(graph, a, b)
                e = compute_E(graph, a, b)
                f = compute_F(graph, a, b)
                if not (f <= e <= d):
                    order_bad += 1
        if check_no_sinks(graph).holds:
            for a in names:
                for b in names:
                    fab, fba = compute_F(graph, a, b), compute_F(graph, b, a)
                    if fab < math.inf and fba < math.inf and -fba > fab:
                        eq29_bad += 1
    ok = mismatches == 0 and order_bad == 0 and eq29_bad == 0
    report(8, ok, "chain values vs brute force: %d mismatches; F<=E<=D "
                  "violations %d; lower-bound violations on sink-free "
                  "instances %d" % (mismatches, order_bad, eq29_bad))


def _tight_instance(rng, n_spaces, n_states):
    """Instance whose one-step infima are attained exactly: state 0 of every
    space sits at shifted entropy 0, so all cross minima telescope."""
    names = ["g%d" % k for k in range(n_spaces)]
    b_true = {nm: rng.randint(-2, 2) for nm in names}
    spaces = {}
    star = {}
    for nm in names:
        table = {}
        for k in range(n_states):
            s_star = 0 if k == 0 else rng.randint(0, 5)
            table["s%d" % k] = Fraction(s_star - b_true[nm])
            star[(nm, "s%d" % k)] = s_star
        spaces[nm] = SpaceNode(nm, (Fraction(1),), table)
    facts = []
    for (n1, s1), v1 in star.items():
        for (n2, s2), v2 in star.items():
            if (n1, s1) != (n2, s2) and v1 <= v2:
                facts.append((((n1, s1),), ((n2, s2),)))
    return names, b_true, star, StateSpaceGraph(spaces, facts)


def _engine_relation(star):
    by_space = {}
    for (nm, st) in star:
        by_space.setdefault(nm, []).append(st)
    spaces = [make_space(nm, [1], sorted(sts)) for nm, sts in sorted(by_space.items())]
    facts = [
        (single(n1, s1), single(n2, s2))
        for (n1, s1), v1 in star.items()
        for (n2, s2), v2 in star.items()
        if (n1, s1) != (n2, s2) and v1 <= v2
    ]
    return close(build_relation(spaces, facts, [Fraction(1)]), max_parts=1)


def test_criterion_09_offset_criterion_biconditional():
    rng = random.Random(9)
    mismatches = 0
    checked = 0
    for _ in range(20):
        n_spaces = rng.randint(2, 5)
        n_states = rng.randint(2, 8)
        names, b_true, star, graph = _tight_instance(rng, n_spaces, n_states)
        rel = _engine_relation(star)

        def accessible_fn(a, x, b, y):
            return accessible(rel, single(a, x), single(b, y))

        rep = check_entropy_offset_criterion(graph, accessible_fn)
        mismatches += len(rep.mismatches)
        checked += rep.checked
    ok = mismatches == 0
    report(9, ok, "biconditional on %d cross pairs over 20 instances: "
                  "%d mismatches" % (checked, mismatches))


def test_criterion_10_constants_solver():
    rng = random.Random(10)
    worst_violation = 0.0
    linearity_exact = True
    shift_ok = True
    for _ in range(10):
        names, b_true, star, graph = _tight_instance(rng, 3, 4)
        sol = solve_additive_constants(graph)
        for a in names:
            for b in names:
                if a == b:
                    continue
                f = compute_F(graph, a, b)
                if f < math.inf:
                    worst_violation = max(
                        worst_violation, float(sol.B[a] - sol.B[b] - f)
                    )
        combo = composite_B(sol, [(HALF, names[0]), (Fraction(2), names[1])])
        linearity_exact = linearity_exact and combo == (
            HALF * sol.B[names[0]] + 2 * sol.B[names[1]]
        )
        shifted = {s: sol.B[s] + 11 for s in names}
        for a in names:
            for b in names:
                if a == b:
                    continue
                f = compute_F(graph, a, b)
                if f < math.inf and shifted[a] - shifted[b] > f:
                    shift_ok = False

    n1 = SpaceNode("s1", (Fraction(1),), {"a": Fraction(0), "b": Fraction(7)})
    n2 = SpaceNode("s2", (Fraction(1),), {"c": Fraction(5), "d": Fraction(10)})
    gap_graph = StateSpaceGraph({"s1": n1, "s2": n2}, [
        ((("s1", "a"),), (("s2", "c"),)),
        ((("s2", "d"),), (("s1", "b"),)),
    ])
    sol = solve_additive_constants(gap_graph)
    diff = sol.B["s1"] - sol.B["s2"]
    gap = detect_gap(gap_graph, "s1", "s2")
    ok = (
        worst_violation <= 1e-9 and linearity_exact and shift_ok
        and 3 <= diff <= 5 and gap.has_gap and gap.width == 2
    )
    report(10, ok, "difference bounds met within %.1e; linearity exact %s; "
                   "component shift feasible %s; gap instance diff %s in "
                   "[3,5] with width %s"
                   % (worst_violation, linearity_exact, shift_ok,
                      diff, gap.width))
