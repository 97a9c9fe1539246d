"""Differential tests: the Dormand-Prince 5(4) adiabat stepper against the
frozen RK4 reference in reference_simple.py, called through oracle_adapter.py.
The two solve the same ODE by different methods, so energies agree only within
README's bound ("Numerical tolerances"): AGREE * tol per unit of V path length.
Cases, violations, probes, which probes escape to -inf or +inf, and the types
of the exceptions raised must match exactly; a message is compared only when
it embeds no exit energy."""

import math
import random

import pytest

import oracle_adapter as ref
from entropy_engine import simple
from entropy_engine.errors import DomainError, EngineError, IntegrationError
from entropy_engine.simple import (
    SECTOR_TOL,
    SimpleSystemModel,
    StatePoint,
    monatomic_ideal_gas,
    point,
    sqrt_singularity_model,
    tabulated_model,
    van_der_waals_gas,
)

GAS = monatomic_ideal_gas()
AGREE = 0.5  # the largest gap seen in these tests is 0.11 * tol * length


def _tabulated():
    # a bilinear pressure, which the interpolation reproduces without kinks:
    # at tol 1e-11 the reference needs 812,948 steps on the kinked tables of
    # test_simple.py, too many to compare against
    us = [0.5 + 0.25 * k for k in range(40)]
    vs = [0.5 + 0.25 * k for k in range(20)]
    p = [[(0.2 + 0.3 * u) * (1.2 - 0.2 * v) for v in vs] for u in us]
    return tabulated_model(us, vs, p)


MODELS = {
    "van_der_waals": van_der_waals_gas(),
    "ideal_gas": GAS,
    "sqrt_singularity": sqrt_singularity_model(),
    "tabulated": _tabulated(),
    # no entropy oracle, so sector queries integrate
    "no_oracle": SimpleSystemModel(
        name="gas_no_oracle", domain=GAS.domain, pressure=GAS.pressure
    ),
}


def outcome(fn, *args, **kwargs):
    """The result, or the exception type, message and exit energy it raised."""
    try:
        return fn(*args, **kwargs)
    except EngineError as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "exit_energy", None))


def raised(got):
    return isinstance(got, tuple) and got[:1] == ("raised",)


def assert_same_failure(got, want):
    """Both raised, with the same type, and the same message and no exit
    energy when the reference's carries none."""
    assert raised(got) and raised(want)
    assert got[1] is want[1]
    assert (got[3] is None) == (want[3] is None)
    if want[3] is None:
        assert got[2] == want[2]


def bound(tol, length):
    """README's agreement bound over a V path of this length."""
    return AGREE * tol * length


def assert_energies_agree(got, want, lengths, tol):
    """The same -inf/finite/+inf pattern, finite values within the bound."""
    assert [u if math.isinf(u) else "finite" for u in got] == [
        u if math.isinf(u) else "finite" for u in want]
    for a, b, length in zip(got, want, lengths):
        if math.isfinite(a):
            assert abs(a - b) <= bound(tol, length)


def interior(rng, model, margin):
    lo, hi = model.domain.lo, model.domain.hi
    return point(
        lo[0] + (margin + (1.0 - 2.0 * margin) * rng.random()) * (hi[0] - lo[0]),
        lo[1] + (margin + (1.0 - 2.0 * margin) * rng.random()) * (hi[1] - lo[1]),
    )


@pytest.mark.parametrize("name", sorted(MODELS))
def test_nesting_matches_reference_on_seeded_pairs(name):
    model = MODELS[name]
    rng = random.Random(11)
    pairs = [(interior(rng, model, 0.02), interior(rng, model, 0.02))
             for _ in range(12)]
    center = interior(rng, model, 0.5)
    pairs.append((center, center))
    if name == "sqrt_singularity":  # adiabats that merge: a crossing
        pairs.append((point(1.0, 0.5), point(1.0001, 0.3)))
    for x, y in pairs:
        got = simple.check_nesting(model, x, y)
        want = ref.check_nesting(model, x, y)
        assert (got.case, got.violation) == (want.case, want.violation)
        if name == "sqrt_singularity":
            continue  # solutions through U = 1 are not unique
        assert got.probes == want.probes
        # each delta is the gap of two sweeps, from x and from y
        lengths = [abs(p - x.V) + abs(p - y.V) for p in got.probes]
        assert_energies_agree(got.deltas, want.deltas, lengths, SECTOR_TOL)


def reference_waypoint_energies(model, x, path, tol):
    """The reference's energy and V path length at each waypoint: its
    integrate_adiabat restarts every segment from the last energy, so one
    call per segment gives the same numbers as one call over the path."""
    u, v, length, out = x.U, x.V, 0.0, []
    for wp in path:
        u = ref.integrate_adiabat(model, StatePoint(u, v), [wp],
                                  tol=tol).samples[-1].U
        length += abs(wp - v)
        v = wp
        out.append((u, length))
    return out


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("tol", [1e-8, 1e-11])
def test_integrated_samples_match_reference(name, tol):
    model = MODELS[name]
    rng = random.Random(7)
    lo, hi = model.domain.lo[1], model.domain.hi[1]
    for _ in range(4):
        x = interior(rng, model, 0.1)
        path = [lo + (0.1 + 0.8 * rng.random()) * (hi - lo) for _ in range(3)]
        path.append(x.V)
        got = outcome(simple.integrate_adiabat, model, x, path, tol=tol)
        want = outcome(ref.integrate_adiabat, model, x, path, tol=tol)
        if raised(want):
            assert_same_failure(got, want)
            continue
        assert not raised(got)
        assert got.samples[0] == x
        # every waypoint is a sample, reached in path order
        at = iter(got.samples)
        energies = [next(s.U for s in at if s.V == wp) for wp in path]
        reference = reference_waypoint_energies(model, x, path, tol)
        assert_energies_agree(energies, [u for u, _ in reference],
                              [length for _, length in reference], tol)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_escaping_sweeps_match_reference(name):
    model = MODELS[name]
    (u_lo, v_lo), (u_hi, v_hi) = model.domain.lo, model.domain.hi
    # hot and cold states near the energy edges leave the box on long sweeps
    states = [
        point(u_hi - 0.02 * (u_hi - u_lo), v_hi - 0.1 * (v_hi - v_lo)),
        point(u_lo + 0.02 * (u_hi - u_lo), v_lo + 0.1 * (v_hi - v_lo)),
        point(u_lo + 0.5 * (u_hi - u_lo), v_lo + 0.5 * (v_hi - v_lo)),
    ]
    grid = [v_lo + (k + 0.5) * (v_hi - v_lo) / 9.0 for k in range(9)]
    for x in states:
        for probes in (grid, [v_hi - 1e-9]):
            got = outcome(simple.adiabat_energy_at, model, x, probes)
            want = outcome(ref.adiabat_energy_at, model, x, probes)
            if raised(want) or raised(got):
                assert_same_failure(got, want)
            elif not (name == "sqrt_singularity" and x is states[2]):
                # the mid state of sqrt_singularity sits a few ulps from a
                # grid target, where the reference fails (see
                # test_target_ulps_from_the_base_is_integrated)
                lengths = [abs(p - x.V) for p in probes]
                assert_energies_agree(got, want, lengths, SECTOR_TOL)
        # a deliberate divergence from the reference, which clips a target
        # on or past the V edge to +-inf as if the sweep had left through
        # the energy floor or ceiling: such a target is bad input
        for target in (v_hi, v_hi + 1.0, v_lo):
            with pytest.raises(DomainError, match=repr(target)):
                simple.adiabat_energy_at(model, x, grid + [target])


def test_target_ulps_from_the_base_is_integrated():
    # a deliberate divergence: on a segment of 2.2e-16 the reference's
    # Richardson check must meet 2.2e-24, below the rounding of U, and its
    # sweep clips the min_step failure to +inf; a step's error estimate
    # scales with the step, so the stepper integrates it.  Above U = 1 the
    # adiabats of sqrt_singularity are sqrt(U - 1) = sqrt(U0 - 1) - (V0 - V).
    model = MODELS["sqrt_singularity"]
    x = point(4.25, 1.05)
    targets = [1.0499999999999998, 0.6, 0.2]
    assert ref.adiabat_energy_at(model, x, targets) == [math.inf] * 3
    got = simple.adiabat_energy_at(model, x, targets)
    for v, u in zip(targets, got):
        exact = 1.0 + (math.sqrt(x.U - 1.0) - (x.V - v)) ** 2
        assert abs(u - exact) <= bound(SECTOR_TOL, x.V - v)


def test_target_on_the_v_edge_raises_before_integrating():
    calls = []
    x = point(5.25, 2.75)
    # the reference gives [3.5247..., -inf, inf]: the targets on the edges
    # read as exits through the energy floor and ceiling
    want = ref.adiabat_energy_at(GAS, x, [4.999, 5.0, 0.5])
    assert want[1:] == [-math.inf, math.inf]
    got = simple.adiabat_energy_at(GAS, x, [4.999])
    assert_energies_agree(got, want[:1], [4.999 - 2.75], SECTOR_TOL)
    for target in (5.0, 0.5):
        with pytest.raises(DomainError, match="V=%r" % target):
            simple.adiabat_energy_at(counted_gas(calls), x, [4.999, target])
    assert calls == []


def test_exterior_base_matches_reference():
    outside = point(20.0, 1.0)
    for targets in ([1.0], [1.0, 2.0], [2.0]):
        got = outcome(simple.adiabat_energy_at, GAS, outside, targets)
        assert got == outcome(ref.adiabat_energy_at, GAS, outside, targets)
    # targets that all equal the base need no integration, so nothing raises
    assert simple.adiabat_energy_at(GAS, outside, [1.0, 1.0]) == [20.0] * 2


def test_sweeps_check_only_their_base(monkeypatch):
    # every segment after the first starts where the stepper accepted a step
    # strictly inside the box, so X is the one start to check
    checked = []
    check = SimpleSystemModel.require_interior
    monkeypatch.setattr(SimpleSystemModel, "require_interior",
                        lambda model, state: check(model, checked.append(state)
                                                   or state))
    x = point(5.25, 2.75)
    energies = simple.adiabat_energy_at(GAS, x, [1.5, 2.0, 3.5, 4.0, 4.9])
    assert checked == [x]
    assert all(GAS.domain.lo[0] < u < GAS.domain.hi[0] for u in energies)


def test_domain_exit_error_matches_reference():
    x = point(9.5, 4.5)
    got = outcome(simple.integrate_adiabat, GAS, x, [0.6])
    want = outcome(ref.integrate_adiabat, GAS, x, [0.6])
    assert_same_failure(got, want)
    assert got[2].startswith("adiabat left the domain of %s at U=" % GAS.name)
    assert not GAS.domain.lo[0] < got[3] < GAS.domain.hi[0]


def test_min_step_failure_matches_reference():
    # no step meets a negative tolerance, and on a segment of 1e-6 each
    # rejection shrinks the step until it falls under MIN_STEP (by 5 here,
    # by 2 in the reference): a few steps, where a longer path would take
    # the reference minutes
    x = point(1.5, 1.0)
    args = (GAS, x, [1.0 + 1e-6])
    got = outcome(simple.integrate_adiabat, *args, tol=-1.0)
    assert got == outcome(ref.integrate_adiabat, *args, tol=-1.0)
    assert got == ("raised", IntegrationError,
                   "step fell below 1e-07 before the tolerance -1 was met",
                   None)
    # A deliberate divergence: the reference's sweep clips the failure to
    # +inf as if it had left through the energy ceiling, but it has no exit
    # energy, so the sweep raises
    targets = [1.0 + 1e-6, 2.0, 1.0 - 1e-6]
    assert ref.adiabat_energy_at(GAS, x, targets, tol=-1.0) == [math.inf] * 3
    assert outcome(simple.adiabat_energy_at, GAS, x, targets, tol=-1.0) == (
        "raised", IntegrationError,
        "step fell below 1e-07 before the tolerance -1 was met", None)


def counted_gas(calls):
    def pressure(U, V):
        calls.append(1)
        return GAS.pressure(U, V)

    return SimpleSystemModel(name="counted", domain=GAS.domain,
                             pressure=pressure)


def test_each_attempted_step_costs_six_pressure_calls():
    # the last stage of a step is the first of the next, across waypoints
    # and sweep targets too: one call for the first slope, then six a step
    calls = []
    x = point(1.5, 1.0)
    for tol in (SECTOR_TOL, 1e-12):
        calls.clear()
        surface = simple.integrate_adiabat(counted_gas(calls), x, [2.0, 1.5],
                                           tol=tol)
        accepted = len(surface.samples) - 1
        assert accepted >= 2 and (len(calls) - 1) % 6 == 0
        assert len(calls) - 1 >= 6 * accepted
        calls.clear()
        simple.adiabat_energy_at(counted_gas(calls), x, [2.0, 3.0], tol=tol)
        assert len(calls) > 1 + 6 and (len(calls) - 1) % 6 == 0
