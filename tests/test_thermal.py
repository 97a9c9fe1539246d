import random

import pytest

from entropy_engine import thermal
from entropy_engine.errors import (
    DomainError,
    SplitBoundaryError,
    TemperatureSignError,
)
from entropy_engine.simple import (
    SimpleSystemModel,
    StatePoint,
    monatomic_ideal_gas,
    point,
    tabulated_model,
    van_der_waals_gas,
)
from entropy_engine.thermal import (
    ThermalJoin,
    check_energy_flow,
    check_transversality,
    check_zeroth_law,
    in_thermal_equilibrium,
    isotherm_state,
    temperature,
    thermal_split,
)

G1 = monatomic_ideal_gas(1)
G2 = monatomic_ideal_gas(2)
VDW = van_der_waals_gas()


def vdw_state_at(T, v):
    """Closed-form van der Waals state with the given temperature."""
    u = 1.5 * T - 0.2 / v
    return point(u, v)


# ------------------------------------------------------------------ split


def test_identical_gases_split_energy_evenly():
    split = thermal_split(ThermalJoin(G1, G1), 4.0, (1.0,), (1.0,))
    assert abs(split.X1.U - 2.0) <= 1e-9
    assert abs(split.X2.U - 2.0) <= 1e-9


def test_split_follows_mole_ratio():
    split = thermal_split(ThermalJoin(G1, G2), 6.0, (1.0,), (1.0,))
    assert abs(split.X1.U - 2.0) <= 1e-9 * 6.0
    assert abs(split.X2.U - 4.0) <= 1e-9 * 6.0


def test_split_total_below_joint_domain_raises():
    with pytest.raises(DomainError):
        thermal_split(ThermalJoin(G1, G2), 0.5, (1.0,), (1.0,))


def test_split_boundary_maximizer_raises():
    narrow = monatomic_ideal_gas(1, domain=((1.0, 2.0), (0.5, 5.0)))
    heavy = monatomic_ideal_gas(100, domain=((1.0, 2.0), (0.5, 5.0)))
    # the mole ratio wants U1 ~ U/101, far below the admissible floor
    with pytest.raises(SplitBoundaryError):
        thermal_split(ThermalJoin(narrow, heavy), 2.5, (1.0,), (1.0,))


def counting(model, calls):
    """The model with an entropy oracle that records each call in calls."""
    entropy = model.entropy
    model.entropy = lambda u, v: calls.append(u) or entropy(u, v)
    return model


def test_split_work_coordinate_outside_v_range_raises_before_any_entropy():
    calls = []
    gas = counting(monatomic_ideal_gas(1), calls)
    vdw = counting(van_der_waals_gas(), calls)
    for left, right, v1, v2 in ((vdw, gas, (0.01,), (1.0,)),
                                (vdw, gas, (1.0,), (50.0,)),
                                (gas, vdw, (1.0,), (4.0,)),
                                # one work coordinate too many
                                (gas, vdw, (1.0, 7.0), (1.0,))):
        with pytest.raises(DomainError):
            thermal_split(ThermalJoin(left, right), 6.0, v1, v2)
    assert calls == []


def test_split_entropy_evaluation_budget():
    calls = []
    join = ThermalJoin(counting(monatomic_ideal_gas(1), calls),
                       counting(monatomic_ideal_gas(2), calls))
    # 66 for the scan, 8 for the bracket ends and 2 for the final value
    # leave 24, six derivative evaluations, for the polish
    split = thermal_split(join, 6.0, (1.0,), (1.0,))
    assert abs(split.X1.U - 2.0) <= 1e-9 * 6.0
    assert len(calls) <= 100


def test_split_perturbation_decreases_total_entropy():
    split = thermal_split(ThermalJoin(G1, G2), 6.0, (1.0,), (1.0,))
    u1 = split.X1.U

    def total(u):
        return G1.entropy(u, (1.0,)) + G2.entropy(6.0 - u, (1.0,))

    for delta in (1e-4, 1e-2, 0.3):
        assert total(u1 + delta) < split.total_entropy
        assert total(u1 - delta) < split.total_entropy


def test_split_temperatures_agree_with_direct_formula():
    split = thermal_split(ThermalJoin(G1, G2), 6.0, (1.5,), (2.0,))
    t1 = temperature(G1, split.X1)
    t2 = temperature(G2, split.X2)
    assert abs(t1 - t2) <= 1e-6 * max(t1, t2)


# ------------------------------------------------------------ equilibrium


def test_state_is_in_equilibrium_with_itself():
    x = point(3.0, 1.0)
    assert in_thermal_equilibrium(G1, x, G1, x)


def test_scaled_copy_stays_in_equilibrium():
    # the double-sized copy of (U, V) is (2U, 2V) in the two-mole system
    x = point(3.0, 1.0)
    assert in_thermal_equilibrium(G1, x, G2, point(6.0, 2.0))


def test_energy_per_mole_gap_breaks_equilibrium():
    assert not in_thermal_equilibrium(G1, point(3.0, 1.0), G1, point(3.3, 1.0))


# -------------------------------------------------------------- zeroth law


def test_zeroth_law_reflexive_triple():
    x = point(3.0, 1.0)
    report = check_zeroth_law([((G1, x), (G1, x), (G1, x))])
    assert report.holds and report.checked == 1


def test_zeroth_law_across_models():
    t = 2.0
    x1 = point(1.5 * t, 1.0)             # ideal gas, T = 2U/(3n)
    x2 = vdw_state_at(t, 2.0)
    x3 = point(2 * 1.5 * t, 1.5)          # two-mole gas at the same T
    report = check_zeroth_law([((G1, x1), (VDW, x2), (G2, x3))])
    assert report.holds and report.checked == 1


def test_zeroth_law_counts_boundary_pairs_as_undecided():
    # the equilibrium partition of this pair falls outside the admissible
    # interval, so the triple cannot be decided inside the finite domains
    x1 = point(5.2, 1.0)
    x2 = point(9.9, 1.0)
    report = check_zeroth_law([((G1, x1), (G2, x2), (G1, x1))])
    assert report.holds
    assert report.undecided == 1
    assert report.checked == 0


def test_zeroth_law_counts_mismatch_as_non_equilibrium():
    x1 = point(3.0, 1.0)
    x3 = point(5.0, 1.0)  # different temperature
    report = check_zeroth_law([((G1, x1), (G1, x1), (G1, x3))])
    assert report.holds
    assert report.non_equilibrium == 1
    assert report.checked == 0


# ------------------------------------------------------------- temperature


def test_monatomic_temperature_formula():
    for moles, model in ((1, G1), (2, G2)):
        x = point(3.0, 1.0)
        t = temperature(model, x)
        assert type(t) is float
        assert abs(t - (2.0 / 3.0) * x.U / moles) <= 1e-8


def test_doubling_energy_doubles_temperature():
    t1 = temperature(G1, point(2.0, 1.0))
    t2 = temperature(G1, point(4.0, 1.0))
    assert abs(t2 - 2.0 * t1) <= 1e-7


def test_temperature_on_boundary_raises():
    with pytest.raises(DomainError):
        temperature(G1, point(G1.domain.hi[0], 1.0))


def test_temperature_positive_on_probe_grid():
    rng = random.Random(2)
    for model in (G1, G2, VDW):
        lo, hi = model.domain.lo, model.domain.hi
        for _ in range(25):
            x = point(
                lo[0] + (0.05 + 0.9 * rng.random()) * (hi[0] - lo[0]),
                lo[1] + (0.05 + 0.9 * rng.random()) * (hi[1] - lo[1]),
            )
            assert temperature(model, x) > 0


def test_non_monotone_oracle_trips_sign_error():
    bad = SimpleSystemModel(
        name="bad", n=1, domain=G1.domain, pressure=G1.pressure,
        entropy=lambda u, v: -u,
    )
    with pytest.raises(TemperatureSignError):
        temperature(bad, point(3.0, 1.0))


def test_split_temperature_matches_derivative_temperature():
    split = thermal_split(ThermalJoin(G1, VDW), 6.0, (1.0,), (2.0,))
    t_left = temperature(G1, split.X1)
    t_right = temperature(VDW, split.X2)
    assert abs(t_left - t_right) <= 1e-6 * max(t_left, t_right)


# ------------------------------------------------------------- energy flow


def test_equal_temperatures_move_no_energy():
    report = check_energy_flow(G1, point(3.0, 1.0), G2, point(6.0, 2.0))
    assert report.ok
    assert abs(report.dU1) <= 1e-6 * 9.0


def test_energy_flows_from_hot_to_cold():
    hot = point(6.0, 1.0)    # T = 4
    cold = point(3.0, 1.0)   # T = 1 in the two-mole gas
    report = check_energy_flow(G1, hot, G2, cold)
    assert report.ok
    assert report.dU1 < 0


def test_randomized_flows_have_no_sign_violations():
    rng = random.Random(9)
    for _ in range(100):
        a = point(1.0 + 7.0 * rng.random(), 1.0 + 3.0 * rng.random())
        b = point(2.2 + 5.0 * rng.random(), 1.0 + 2.5 * rng.random())
        assert check_energy_flow(G1, a, VDW, b).ok


# ---------------------------------------------------------- transversality


def test_transversality_finds_straddling_isotherm_pair():
    x = point(2.0, 2.0)
    report = check_transversality(G1, x)
    assert report.found
    s_x = G1.entropy(x.U, x.V)
    assert G1.entropy(report.below.U, report.below.V) < s_x
    assert G1.entropy(report.above.U, report.above.V) > s_x
    assert in_thermal_equilibrium(G1, report.below, G1, report.above)


def test_transversality_not_found_in_one_sided_probe_window():
    x = point(2.0, 2.0)
    report = check_transversality(G1, x, v_window=(0.55, 1.0))
    assert not report.found
    assert report.above is None


def test_every_work_coordinate_reaches_any_temperature():
    # universal range: solve for the state of the second system at a given
    # work coordinate in equilibrium with the first
    x = point(3.0, 1.0)
    t = temperature(G1, x)
    for v in (0.8, 1.5, 3.0):
        y = isotherm_state(VDW, (v,), t)
        assert y is not None
        assert abs(temperature(VDW, y) - t) <= 1e-6 * t
        assert in_thermal_equilibrium(G1, x, VDW, y, tol=1e-6)


def test_isotherm_state_returns_none_outside_range():
    assert isotherm_state(G1, (1.0,), 1e6) is None


@pytest.mark.parametrize("model, V, T", [
    (G1, 1.0, 2.0), (G1, 3.0, 1.0), (G1, 0.7, 5.0),
    (VDW, 0.8, 1.2), (VDW, 1.5, 1.2), (VDW, 3.0, 1.2),
])
def test_isotherm_state_temperature_budget(monkeypatch, model, V, T):
    calls = []

    def counted(*args):
        calls.append(args)
        return temperature(*args)

    monkeypatch.setattr(thermal, "temperature", counted)
    state = isotherm_state(model, (V,), T)
    monkeypatch.undo()
    assert abs(temperature(model, state) - T) <= 1e-9 * T
    assert len(calls) <= 20


def test_isotherm_state_where_temperature_falls_with_energy():
    # S = U^2/100 is convex in U, so T = 50/U falls as U rises; the bilinear
    # table makes T a staircase whose steps meet at the grid nodes
    us = [1.0 + k for k in range(10)]
    model = tabulated_model(us, [1.0, 2.0], [[1.0, 1.0]] * 10,
                            [[u * u / 100.0] * 2 for u in us])
    for target, node in ((10.0, 5.0), (9.0, 6.0), (7.0, 7.0), (5.5, 9.0)):
        state = isotherm_state(model, (1.5,), target)
        assert abs(state.U - node) <= 1e-5
        assert abs(temperature(model, state) - target) <= 1e-6 * target
    assert isotherm_state(model, (1.5,), 40.0) is None
    assert isotherm_state(model, (1.5,), 5.0) is None


def test_isotherm_state_target_at_padded_end_returns_that_end():
    lo, hi = G1.domain.lo[0], G1.domain.hi[0]
    pad = 1e-4 * (hi - lo) + 2e-6 * max(1.0, abs(hi))
    for u in (lo + pad, hi - pad):
        target = temperature(G1, StatePoint(u, (1.0,)))
        assert isotherm_state(G1, (1.0,), target).U == u
