import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from entropy_engine.errors import DomainError, InputFormatError, IntegrationError
from entropy_engine.simple import (
    CROSSING,
    EQUAL_SECTORS,
    X_INSIDE_Y,
    Y_INSIDE_X,
    SimpleSystemModel,
    StatePoint,
    Box,
    adiabat_energy_at,
    check_convexity,
    check_lipschitz,
    check_nesting,
    integrate_adiabat,
    model_from_spec,
    monatomic_ideal_gas,
    point,
    pressure_consistency,
    sqrt_singularity_model,
    tabulated_model,
    van_der_waals_gas,
)

GAS = monatomic_ideal_gas()
VDW = van_der_waals_gas()


def gas_adiabat_energy(x, v):
    """Closed form: U V^(2/3) is constant along ideal-gas adiabats."""
    return x.U * (x.V / v) ** (2.0 / 3.0)


# ------------------------------------------------------------ integration


def test_zero_length_path_returns_base_point():
    x = point(1.5, 1.0)
    surface = integrate_adiabat(GAS, x, [1.0])
    assert surface.samples == [x]


def test_ideal_gas_invariant_is_conserved():
    x = point(1.5, 1.0)
    surface = integrate_adiabat(GAS, x, [2.0])
    inv = x.U * x.V ** (2.0 / 3.0)
    drift = max(
        abs(s.U * s.V ** (2.0 / 3.0) - inv) / inv for s in surface.samples
    )
    assert drift <= 1e-6


def test_forward_backward_path_returns_to_start():
    x = point(1.5, 1.0)
    surface = integrate_adiabat(GAS, x, [2.0, 1.0])
    assert abs(surface.samples[-1].U - x.U) <= 1e-7


def test_path_leaving_domain_raises():
    x = point(9.5, 4.5)
    with pytest.raises(IntegrationError) as info:
        integrate_adiabat(GAS, x, [0.6])
    assert info.value.exit_energy >= GAS.domain.hi[0]


def test_unreachable_tolerance_raises_step_underflow():
    # no step meets a negative tolerance: each rejection shrinks the step by
    # 5 until it falls under MIN_STEP, and nothing left the box
    x = point(1.5, 1.0)
    for run in (lambda: integrate_adiabat(GAS, x, [2.0], tol=-1.0),
                lambda: adiabat_energy_at(GAS, x, [2.0, 0.8], tol=-1.0)):
        with pytest.raises(IntegrationError, match="step fell below 1e-07 "
                           "before the tolerance -1 was met") as info:
            run()
        assert getattr(info.value, "exit_energy", None) is None


def _kinked_table(pressure):
    # bilinear interpolation of a curved pressure: dP/dV jumps at every inner
    # V grid line, and dP/dU at every inner U grid line unless P is linear
    # in U
    us = [0.5 + 0.25 * k for k in range(40)]
    vs = [0.5 + 0.25 * k for k in range(20)]
    return tabulated_model(us, vs, [[pressure(u, v) for v in vs] for u in us])


KINKED = {
    "linear_in_u": _kinked_table(lambda u, v: 2.0 * u / (3.0 * v) + 0.01 * u * v),
    "curved_in_u": _kinked_table(
        lambda u, v: 2.0 * u / (3.0 * v) + 0.05 * u * u / v + 0.01 * u * v),
}


def _kinked_runs(model, tol):
    """Four adiabats, each along 3 random waypoints and back to its start."""
    rng = random.Random(7)
    lo, hi = model.domain.lo, model.domain.hi
    runs = []
    for _ in range(4):
        x = point(*(l + (0.1 + 0.8 * rng.random()) * (h - l)
                    for l, h in zip(lo, hi)))
        path = [lo[1] + (0.1 + 0.8 * rng.random()) * (hi[1] - lo[1])
                for _ in range(3)] + [x.V]
        runs.append((path, integrate_adiabat(model, x, path, tol=tol)))
    return runs


@pytest.mark.parametrize("name", sorted(KINKED))
def test_kinked_table_spends_small_steps_only_at_kinks(name):
    # whole-segment step halving took 25,812 and 812,948 samples on
    # linear_in_u at tol 1e-8 and 1e-11
    model = KINKED[name]
    u_lines, v_lines = model.kinks
    loose, tight = (_kinked_runs(model, tol) for tol in (1e-8, 1e-11))
    assert sum(len(surface.samples) for _, surface in tight) < 5000
    for _, surface in loose + tight:
        for a, b in zip(surface.samples, surface.samples[1:]):
            # no step spans a grid line; a step may start a hair short of
            # the U line the last one landed on
            v_lo, v_hi = sorted((a.V, b.V))
            assert not [v for v in v_lines if v_lo < v < v_hi]
            u_lo, u_hi = sorted((a.U, b.U))
            assert all(abs(u - a.U) <= 1e-12 for u in u_lines if u_lo < u < u_hi)
    # a step across a kink has an error estimate far under its error, so
    # only kink-free steps keep the waypoints within README's bound
    for (path, coarse), (_, fine) in zip(loose, tight):
        at_coarse, at_fine = iter(coarse.samples[1:]), iter(fine.samples[1:])
        v, length = coarse.base.V, 0.0
        for wp in path:
            length += abs(wp - v)
            v = wp
            u_coarse = next(s.U for s in at_coarse if s.V == v)
            u_fine = next(s.U for s in at_fine if s.V == v)
            assert abs(u_coarse - u_fine) <= 0.5 * 1e-8 * length


# --------------------------------------------------------- forward sector


def test_sector_query_without_oracle_integrates():
    # without an entropy oracle, Y is in X's forward sector iff Y.U is on or
    # above the integrated adiabat energy at Y.V
    model = SimpleSystemModel(
        name="gas_no_oracle", domain=GAS.domain, pressure=GAS.pressure
    )
    x = point(1.5, 1.0)
    u_wide, u_narrow = adiabat_energy_at(model, x, [2.0, 0.8])
    for v, u in ((2.0, u_wide), (0.8, u_narrow)):
        assert abs(u - gas_adiabat_energy(x, v)) <= 1e-6
    assert 1.5 >= u_wide  # free expansion to (1.5, 2.0) is ahead
    assert 1.5 < u_narrow  # free compression to (1.5, 0.8) is not


def test_sector_query_clips_when_adiabat_cannot_reach_target():
    model = SimpleSystemModel(
        name="gas_no_oracle", domain=GAS.domain, pressure=GAS.pressure
    )
    # the adiabat through a hot state exits the energy ceiling on the way
    # to small volumes; the sweep clips the target to +inf
    assert adiabat_energy_at(model, point(9.5, 4.5), [0.6]) == [math.inf]


# ----------------------------------------------------------------- nesting


def test_nesting_equal_when_second_point_on_adiabat():
    x = point(1.5, 1.0)
    y = point(gas_adiabat_energy(x, 1.7), 1.7)
    result = check_nesting(GAS, x, y)
    assert result.case == EQUAL_SECTORS
    assert not result.violation


def test_nesting_strict_orders_follow_entropy():
    x = point(1.5, 1.0)
    hot = point(3.0, 1.0)
    result = check_nesting(GAS, x, hot)
    assert result.case == Y_INSIDE_X  # x strictly precedes the hotter state
    assert check_nesting(GAS, hot, x).case == X_INSIDE_Y


def test_adversarial_model_reports_crossing():
    adv = sqrt_singularity_model()
    merged = point(1.0, 0.5)
    branch = point(1.0001, 0.3)
    result = check_nesting(adv, merged, branch)
    assert result.case == CROSSING
    assert result.violation


def test_lipschitz_models_never_report_crossing():
    rng = random.Random(11)
    for model in (GAS, VDW):
        lo, hi = model.domain.lo, model.domain.hi
        for _ in range(40):
            a = point(
                lo[0] + (0.1 + 0.8 * rng.random()) * (hi[0] - lo[0]),
                lo[1] + (0.1 + 0.8 * rng.random()) * (hi[1] - lo[1]),
            )
            b = point(
                lo[0] + (0.1 + 0.8 * rng.random()) * (hi[0] - lo[0]),
                lo[1] + (0.1 + 0.8 * rng.random()) * (hi[1] - lo[1]),
            )
            assert not check_nesting(model, a, b).violation


def test_nesting_averages_at_most_400_pressure_calls():
    # whole-segment step halving took about 1,640 a check
    calls = []

    def pressure(U, V):
        calls.append(1)
        return VDW.pressure(U, V)

    model = SimpleSystemModel(name="counted_vdw", domain=VDW.domain,
                              pressure=pressure)
    rng = random.Random(1)
    lo, hi = model.domain.lo, model.domain.hi
    pairs = 100
    for _ in range(pairs):
        x, y = (point(*(l + (0.1 + 0.8 * rng.random()) * (h - l)
                        for l, h in zip(lo, hi))) for _ in range(2))
        check_nesting(model, x, y)
    assert len(calls) <= 400 * pairs


SWAPPED = {X_INSIDE_Y: Y_INSIDE_X, Y_INSIDE_X: X_INSIDE_Y,
           EQUAL_SECTORS: EQUAL_SECTORS, CROSSING: CROSSING}
UNIT = st.floats(0.05, 0.95)  # fractions of the domain's edges


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["gas", "vdw", "sqrt"]),
       fx=st.tuples(UNIT, UNIT), fy=st.tuples(UNIT, UNIT))
@example(kind="sqrt", fx=(0.5 / 7.5, 0.4 / 1.9), fy=(0.5001 / 7.5, 0.2 / 1.9))
@example(kind="gas", fx=(0.5, 0.5), fy=(0.5, 0.5))
def test_swapping_states_swaps_nesting(kind, fx, fy):
    # each delta only changes sign, so the classification mirrors exactly;
    # the examples are the sqrt model's crossing and an equal-sector pair
    model = {"gas": GAS, "vdw": VDW, "sqrt": sqrt_singularity_model()}[kind]
    lo, hi = model.domain.lo, model.domain.hi
    x, y = (point(lo[0] + a * (hi[0] - lo[0]), lo[1] + b * (hi[1] - lo[1]))
            for a, b in (fx, fy))
    forward, backward = check_nesting(model, x, y), check_nesting(model, y, x)
    assert backward.case == SWAPPED[forward.case]
    assert backward.violation == forward.violation
    assert backward.deltas == [-d for d in forward.deltas]
    assert backward.probes == forward.probes


# ------------------------------------------------------------- reciprocity


def test_adiabat_reciprocity():
    x = point(1.5, 1.0)
    tol = 1e-10
    surface = integrate_adiabat(GAS, x, [2.2], tol=tol)
    y = surface.samples[-1]
    back = integrate_adiabat(GAS, y, [1.0], tol=tol)
    assert abs(back.samples[-1].U - x.U) <= 10 * tol * max(1.0, abs(x.U))


# -------------------------------------------------------------- convexity


def test_convexity_endpoints_pass():
    report = check_convexity(GAS, point(1.5, 1.0), point(2.5, 2.0))
    assert report.holds


def test_convexity_midpoint_strict_for_gas():
    x, y = point(1.5, 1.0), point(2.5, 2.0)
    report = check_convexity(GAS, x, y)
    assert report.holds
    mix = point(2.0, 1.5)
    combined = 0.5 * GAS.entropy(x.U, x.V) + 0.5 * GAS.entropy(y.U, y.V)
    assert GAS.entropy(mix.U, mix.V) > combined


def test_convexity_flags_non_concave_oracle():
    bad = SimpleSystemModel(
        name="convex_oracle", domain=GAS.domain,
        pressure=GAS.pressure, entropy=lambda u, v: u * u,
    )
    report = check_convexity(bad, point(1.0, 1.0), point(3.0, 1.0))
    assert [t for t, _gap in report.violations] == [0.25, 0.5, 0.75]


# ---------------------------------------------------------------- pressure


def test_monatomic_pressure_value():
    assert GAS.pressure(1.5, 1.0) == 1.0


def textbook_vdw(n, a, b, U, V):
    """P and S of a van der Waals gas, T first, in the order of operations
    of the two-step formulas."""
    c = 1.5
    T = (U + a * n * n / V) / (c * n)
    return (n * T / (V - n * b) - a * n * n / (V * V),
            n * (math.log(V - n * b) + c * math.log(T)))


def textbook_gas(n, U, V):
    return 2.0 * U / (3.0 * V), n * math.log(V * U ** 1.5)


# at 1 and 2 moles a*n*n and a*(n*n) are the same float; at 3 and 7/3 they
# need not be, so a regrouped product shows
@pytest.mark.parametrize("moles", [1, 3, Fraction(7, 3)])
def test_gas_oracles_equal_the_textbook_formulas_bit_for_bit(moles):
    n = float(moles)
    a, b = 0.37, 0.031
    cases = [(van_der_waals_gas(moles, a, b),
              lambda U, V: textbook_vdw(n, a, b, U, V)),
             (monatomic_ideal_gas(moles), lambda U, V: textbook_gas(n, U, V))]
    rng = random.Random(20)
    for model, textbook in cases:
        (u_lo, v_lo), (u_hi, v_hi) = model.domain
        for _ in range(1000):
            U = u_lo + (0.01 + 0.98 * rng.random()) * (u_hi - u_lo)
            V = v_lo + (0.01 + 0.98 * rng.random()) * (v_hi - v_lo)
            assert (model.pressure(U, V), model.entropy(U, V)) == textbook(U, V)


def test_pressure_matches_tangent_plane_slope():
    for model in (GAS, VDW):
        x = point(2.0, 1.5)
        assert pressure_consistency(model, x) <= 1e-6


def test_consistency_stencil_leaving_the_domain_names_the_state():
    x = point(GAS.domain.lo[0] + 1e-7, 2.0)
    with pytest.raises(DomainError) as info:
        pressure_consistency(GAS, x)
    assert str(info.value) == ("finite-difference stencil leaves the domain at "
                               "StatePoint(U=0.5000001, V=2.0)")


def test_pressure_on_boundary_raises():
    with pytest.raises(DomainError):
        GAS.require_interior(point(GAS.domain.lo[0], 1.0))


# ---------------------------------------------------------------- models


def test_lipschitz_check_passes_for_builtin_models():
    for model in (GAS, VDW):
        assert check_lipschitz(model, samples=200, seed=3).holds


def test_lipschitz_check_fails_for_sqrt_singularity():
    adv = sqrt_singularity_model()
    report = check_lipschitz(adv, samples=400, seed=3)
    assert not report.holds
    assert report.details["worst_quotient"] > adv.lipschitz_bound


def test_tabulated_model_interpolates_pressure():
    us = [0.5 + 0.25 * k for k in range(40)]
    vs = [0.5 + 0.25 * k for k in range(20)]
    p = [[2.0 * u / (3.0 * v) for v in vs] for u in us]
    model = tabulated_model(us, vs, p)
    x = point(1.7, 1.3)
    exact = 2.0 * x.U / (3.0 * x.V)
    assert abs(model.pressure(x.U, x.V) - exact) <= 5e-3


def test_model_from_spec_builds_each_kind():
    gas = model_from_spec({"type": "ideal_gas", "moles": "2"})
    assert gas.name == "ideal_gas(n=2)"
    vdw = model_from_spec({"type": "van_der_waals", "a": 0.1, "b": 0.01})
    assert "van_der_waals" in vdw.name
    adv = model_from_spec({"type": "sqrt_singularity"})
    assert adv.entropy is None
    model_from_spec({
        "type": "tabulated",
        "u_grid": [1.0, 2.0], "v_grid": [1.0, 2.0],
        "pressure_grid": [[1.0, 0.5], [2.0, 1.0]],
    })


def test_model_from_spec_rejects_unknown_type():
    with pytest.raises(InputFormatError):
        model_from_spec({"type": "plasma"})


@pytest.mark.parametrize("domain, message", [
    ([[0, 1], [0.2, 0.5]], "domain must be an object, got [[0, 1], [0.2, 0.5]]"),
    ({"V": [[0.5, 5]]},
     "domain U must be a nonempty list of finite numbers, got None"),
    ({"U": [0.5, 10]}, "domain V must be a list of one [lo, hi] range, got None"),
])
def test_model_from_spec_names_the_bad_part_of_a_domain(domain, message):
    with pytest.raises(InputFormatError) as info:
        model_from_spec({"type": "ideal_gas", "domain": domain})
    assert str(info.value) == message


def test_domain_is_open():
    box = Box((1.0, 2.0), (3.0, 5.0))
    assert box.contains((2.0, 3.0))
    assert box.contains((1.0 + 1e-12, 5.0 - 1e-12))
    for face in [(1.0, 3.0), (3.0, 3.0), (2.0, 2.0), (2.0, 5.0),
                 (1.0, 2.0), (3.0, 5.0)]:
        assert not box.contains(face), face
    for beyond in [(0.5, 3.0), (3.5, 3.0), (2.0, 1.5), (2.0, 5.5)]:
        assert not box.contains(beyond), beyond


def test_state_point_and_box_records():
    x = point(1, 2)
    assert repr(x) == str(x) == "StatePoint(U=1.0, V=2.0)"
    assert x == StatePoint(1.0, 2.0) and x != StatePoint(1.0, 2.5)
    assert hash(x) == hash((1.0, 2.0))
    box = Box((0.5, 0.1), (8.0, 2.0))
    assert repr(box) == str(box) == "Box(lo=(0.5, 0.1), hi=(8.0, 2.0))"
    assert box == Box(lo=(0.5, 0.1), hi=(8.0, 2.0))
    assert box != Box((0.5, 0.1), (8.0, 2.5))
    assert hash(box) == hash(((0.5, 0.1), (8.0, 2.0)))
