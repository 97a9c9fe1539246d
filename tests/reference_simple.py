"""Frozen reference implementation of the adiabat layer.

These are the n-dimensional versions of _rk4_segment, integrate_adiabat,
adiabat_energy_at and check_nesting that the scalar one-coordinate kernel in
entropy_engine.simple replaced.  Every RK4 slope builds its coordinate tuple
and sums a generator, every step builds a StatePoint and runs the generic
Box.contains, and each Richardson round integrates its coarse pass afresh.
Differential tests compare the package against them with ==.  Do not
optimise this module.
"""

import math
from dataclasses import dataclass

from entropy_engine.errors import DomainError, IntegrationError
from entropy_engine.simple import (
    CROSSING,
    EQUAL_SECTORS,
    X_INSIDE_Y,
    Y_INSIDE_X,
    NestingResult,
)


@dataclass
class AdiabatSurface:
    """The sampled adiabat these versions return, with the initial step and
    the tolerance that produced it."""

    base: object
    samples: list
    step: float
    tolerance: float


@dataclass(frozen=True)
class StatePoint:
    """A state whose work coordinates V are a tuple, as these versions take."""

    U: float
    V: tuple

    def coords(self):
        return (self.U,) + tuple(self.V)


def _rk4_segment(model, u0, v_from, v_to, steps, check_domain=True):
    """Integrate dU = -P . dV along one straight segment with `steps` RK4 steps."""
    dv = tuple(b - a for a, b in zip(v_from, v_to))

    def slope(t, u):
        v = tuple(a + t * d for a, d in zip(v_from, dv))
        p = model.pressure(u, v)
        return -sum(pi * di for pi, di in zip(p, dv))

    u = u0
    h = 1.0 / steps
    t = 0.0
    out = []
    for _ in range(steps):
        k1 = slope(t, u)
        k2 = slope(t + 0.5 * h, u + 0.5 * h * k1)
        k3 = slope(t + 0.5 * h, u + 0.5 * h * k2)
        k4 = slope(t + h, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        v = tuple(a + t * d for a, d in zip(v_from, dv))
        if check_domain and not model.domain.contains((u,) + v):
            exc = IntegrationError(
                "adiabat left the domain of %s at U=%g V=%s"
                % (model.name, u, v)
            )
            exc.exit_energy = u
            exc.exit_v = v
            raise exc
        out.append(StatePoint(u, v))
    return out


def integrate_adiabat(model, X, waypoints, step=None, tol=1e-8, min_step=1e-7):
    """Integrate the adiabat through X along a piecewise-linear V path."""
    model.require_interior(X)
    if step is None:
        step = model.domain.span() / 100.0
    samples = [X]
    u = X.U
    v_prev = tuple(X.V)
    for wp in waypoints:
        v_next = tuple(float(c) for c in wp)
        seg_len = math.sqrt(sum((b - a) ** 2 for a, b in zip(v_prev, v_next)))
        if seg_len == 0.0:
            continue
        h = min(step, seg_len)
        while True:
            steps = max(1, math.ceil(seg_len / h))
            path = _rk4_segment(model, u, v_prev, v_next, steps)
            if tol is None:
                break
            fine = _rk4_segment(model, u, v_prev, v_next, steps * 2)
            if abs(fine[-1].U - path[-1].U) <= tol * seg_len:
                path = fine
                break
            h /= 2.0
            if h < min_step:
                raise IntegrationError(
                    "step fell below %g before the tolerance %g was met"
                    % (min_step, tol)
                )
        samples.extend(path)
        u = path[-1].U
        v_prev = v_next
    return AdiabatSurface(base=X, samples=samples, step=step, tolerance=tol or 0.0)


def adiabat_energy_at(model, X, v_targets, step=None, tol=1e-8, clip=True):
    """Adiabat energies through X at each target V, one sweep per direction."""
    targets = [tuple(float(c) for c in (t if not isinstance(t, (int, float)) else (t,)))
               for t in v_targets]
    mid_u = 0.5 * (model.domain.lo[0] + model.domain.hi[0])

    def exit_value(exc):
        u = getattr(exc, "exit_energy", mid_u)
        return math.inf if u >= mid_u else -math.inf

    result = {}
    if model.n == 1:
        base = X.V[0]
        rights = sorted(t for t in targets if t[0] >= base)
        lefts = sorted((t for t in targets if t[0] < base), reverse=True)
        for chain in (rights, lefts):
            u = X.U
            v = (base,)
            escaped = None
            for t in chain:
                if escaped is not None:
                    result[t] = escaped
                    continue
                if t == v:
                    result[t] = u
                    continue
                try:
                    surface = integrate_adiabat(
                        model, StatePoint(u, v), [t], step=step, tol=tol
                    )
                except IntegrationError as exc:
                    if not clip:
                        raise
                    escaped = exit_value(exc)
                    result[t] = escaped
                    continue
                u = surface.samples[-1].U
                v = t
                result[t] = u
    else:
        for t in targets:
            try:
                surface = integrate_adiabat(model, X, [t], step=step, tol=tol)
            except IntegrationError as exc:
                if not clip:
                    raise
                result[t] = exit_value(exc)
                continue
            result[t] = surface.samples[-1].U
    return [result[t] for t in targets]


def check_nesting(model, X, Y, probes=None, step=None, tol=1e-8,
                  eq_tol=None, touch_ratio=100.0):
    """Classify the forward sectors of X and Y as equal or strictly nested."""
    model.require_interior(X)
    model.require_interior(Y)
    if probes is None:
        lo, hi = model.domain.lo[1], model.domain.hi[1]
        pad = 0.05 * (hi - lo)
        probes = [
            (lo + pad + k * (hi - lo - 2 * pad) / 6.0,) for k in range(7)
        ]
    probes = [tuple(p) if not isinstance(p, (int, float)) else (float(p),)
              for p in probes]
    if not probes:
        raise DomainError("nesting check needs a non-empty probe grid")
    ux = adiabat_energy_at(model, X, probes, step=step, tol=tol)
    uy = adiabat_energy_at(model, Y, probes, step=step, tol=tol)
    deltas, kept = [], []
    for p, a, b in zip(probes, ux, uy):
        if not math.isfinite(a) and not math.isfinite(b):
            continue  # both sheets left the box here; probe is indeterminate
        deltas.append(a - b)
        kept.append(p)
    probes = kept
    if not deltas:
        raise DomainError(
            "both adiabats leave the domain over the whole probe grid"
        )
    finite = [abs(u) for u in ux + uy if math.isfinite(u)]
    scale = max(1.0, max(finite)) if finite else 1.0
    if eq_tol is None:
        eq_tol = max(1e-6 * scale, 50.0 * tol)
    pos = any(d > eq_tol for d in deltas)
    neg = any(d < -eq_tol for d in deltas)
    near_zero = any(abs(d) <= eq_tol for d in deltas)
    finite_deltas = [abs(d) for d in deltas if math.isfinite(d)]
    big = bool(finite_deltas) and max(finite_deltas) >= touch_ratio * eq_tol
    if pos and neg:
        return NestingResult(CROSSING, True, deltas, probes)
    if not pos and not neg:
        return NestingResult(EQUAL_SECTORS, False, deltas, probes)
    if near_zero and big:
        return NestingResult(CROSSING, True, deltas, probes)
    if pos:
        return NestingResult(X_INSIDE_Y, False, deltas, probes)
    return NestingResult(Y_INSIDE_X, False, deltas, probes)
