"""Differential tests: the scalar one-coordinate adiabat kernel against the
frozen n-dimensional reference in reference_simple.py.  Floats are compared
with ==: the kernel must give the reference's numbers bit for bit."""

import math
import random

import pytest

import reference_simple as ref
from entropy_engine import simple
from entropy_engine.errors import DomainError, EngineError
from entropy_engine.simple import (
    SimpleSystemModel,
    monatomic_ideal_gas,
    point,
    sqrt_singularity_model,
    tabulated_model,
    van_der_waals_gas,
)

GAS = monatomic_ideal_gas()


def _tabulated():
    # a bilinear pressure, which the interpolation reproduces without kinks
    # (a kink at each grid line costs the Richardson check many halvings)
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
        name="gas_no_oracle", n=1, domain=GAS.domain, pressure=GAS.pressure
    ),
}


def outcome(fn, *args, **kwargs):
    """The result, or the exception type, message and exit energy it raised."""
    try:
        return fn(*args, **kwargs)
    except EngineError as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "exit_energy", None))


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
        assert (got.case, got.violation, got.deltas, got.probes) == (
            want.case, want.violation, want.deltas, want.probes)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("tol", [1e-8, 1e-11, None])
def test_integrated_samples_match_reference(name, tol):
    model = MODELS[name]
    rng = random.Random(7)
    lo, hi = model.domain.lo[1], model.domain.hi[1]
    for _ in range(4):
        x = interior(rng, model, 0.1)
        path = [(lo + (0.1 + 0.8 * rng.random()) * (hi - lo),) for _ in range(3)]
        path.append(tuple(x.V))
        got = outcome(simple.integrate_adiabat, model, x, path, tol=tol)
        want = outcome(ref.integrate_adiabat, model, x, path, tol=tol)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert got.samples == want.samples
        assert (got.step, got.tolerance) == (want.step, want.tolerance)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("clip", [True, False])
def test_escaping_sweeps_match_reference(name, clip):
    model = MODELS[name]
    (u_lo, v_lo), (u_hi, v_hi) = model.domain.lo, model.domain.hi
    # hot and cold states near the energy edges leave the box on long sweeps
    states = [
        point(u_hi - 0.02 * (u_hi - u_lo), v_hi - 0.1 * (v_hi - v_lo)),
        point(u_lo + 0.02 * (u_hi - u_lo), v_lo + 0.1 * (v_hi - v_lo)),
        point(u_lo + 0.5 * (u_hi - u_lo), v_lo + 0.5 * (v_hi - v_lo)),
    ]
    grid = [(v_lo + (k + 0.5) * (v_hi - v_lo) / 9.0,) for k in range(9)]
    for x in states:
        for probes in (grid, [(v_hi - 1e-9,)]):
            for tol in (1e-8, None):
                got = outcome(simple.adiabat_energy_at, model, x, probes,
                              tol=tol, clip=clip)
                want = outcome(ref.adiabat_energy_at, model, x, probes,
                               tol=tol, clip=clip)
                assert got == want
        # a deliberate divergence from the reference, which clips a target
        # on or past the V edge to +-inf as if the sweep had left through
        # the energy floor or ceiling: such a target is bad input
        for target in ((v_hi,), (v_hi + 1.0,), (v_lo,)):
            with pytest.raises(DomainError, match=repr(target[0])):
                simple.adiabat_energy_at(model, x, grid + [target], clip=clip)


def test_target_on_the_v_edge_raises_before_integrating():
    calls = []
    x = point(5.25, 2.75)
    # the reference gives [3.5247..., -inf, inf]: the targets on the edges
    # read as exits through the energy floor and ceiling
    assert ref.adiabat_energy_at(GAS, x, [(4.999,), (5.0,), (0.5,)])[1:] == [
        -math.inf, math.inf]
    assert simple.adiabat_energy_at(GAS, x, [(4.999,)]) == [3.524728537577623]
    for target in (5.0, 0.5):
        with pytest.raises(DomainError, match="V=%r" % target):
            simple.adiabat_energy_at(counted_gas(calls), x, [(4.999,), target])
    assert calls == []


def test_exterior_base_matches_reference():
    outside = point(20.0, 1.0)
    for targets in ([(1.0,)], [(1.0,), (2.0,)], [(2.0,)]):
        got = outcome(simple.adiabat_energy_at, GAS, outside, targets)
        assert got == outcome(ref.adiabat_energy_at, GAS, outside, targets)
    # targets that all equal the base need no integration, so nothing raises
    assert simple.adiabat_energy_at(GAS, outside, [(1.0,), 1.0]) == [20.0] * 2


def test_domain_exit_error_matches_reference():
    x = point(9.5, 4.5)
    got = outcome(simple.integrate_adiabat, GAS, x, [(0.6,)], tol=None)
    want = outcome(ref.integrate_adiabat, GAS, x, [(0.6,)], tol=None)
    assert got[0] == "raised"
    assert got == want


def test_min_step_failure_matches_reference():
    x = point(1.5, 1.0)
    args = (GAS, x, [(2.0,)])
    kwargs = dict(step=0.5, tol=1e-18, min_step=1e-3)
    got = outcome(simple.integrate_adiabat, *args, **kwargs)
    want = outcome(ref.integrate_adiabat, *args, **kwargs)
    assert got[0] == "raised" and got[3] is None
    assert got == want
    # a sweep clips the min_step failure to +inf, since it has no exit
    # energy; no pass meets a negative tolerance, and on a segment of 1e-6
    # the step falls under the default min_step after four halvings
    targets = [(1.0 + 1e-6,), (2.0,), (1.0 - 1e-6,)]
    for clip in (True, False):
        got = outcome(simple.adiabat_energy_at, GAS, x, targets, tol=-1.0,
                      clip=clip)
        assert got == outcome(ref.adiabat_energy_at, GAS, x, targets,
                              tol=-1.0, clip=clip)
        assert got == [math.inf] * 3 if clip else got[0] == "raised"


def counted_gas(calls):
    def pressure(U, V):
        calls.append(1)
        return GAS.pressure(U, V)

    return SimpleSystemModel(name="counted", n=1, domain=GAS.domain,
                             pressure=pressure)


def test_halving_reuses_half_step_pass():
    # the step divides the segment evenly, so every halving doubles the step
    # count: after the first round only the half-step pass is integrated
    calls, ref_calls = [], []
    x = point(1.5, 1.0)
    got = simple.integrate_adiabat(counted_gas(calls), x, [(2.0,)],
                                   step=0.25, tol=1e-12)
    want = ref.integrate_adiabat(counted_gas(ref_calls), x, [(2.0,)],
                                 step=0.25, tol=1e-12)
    assert got.samples == want.samples
    fine = len(got.samples) - 1  # steps of the accepted pass
    assert fine >= 32  # several rounds ran
    # 4 + 8 steps in the first round, then 16, 32, ..., fine: 4 evals a step
    assert len(calls) == 4 * (2 * fine - 4)
    # the reference integrates 4 + 8, 8 + 16, ..., fine / 2 + fine
    assert len(ref_calls) == 4 * 3 * (fine - 4)
