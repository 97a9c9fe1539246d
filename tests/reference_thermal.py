"""Frozen reference implementation of the thermal split and isotherm solve.

These are the versions of thermal_split and isotherm_state that polish the
entropy maximizer by bisecting the sign of the central-difference derivative
and invert the temperature by 200-step bisection, with the temperature,
golden-section and result helpers they call.  Differential tests compare the
package's Brent-polished versions against them within the tolerances the
README states.  Do not optimise this module.
"""

import math
from dataclasses import dataclass, field

from entropy_engine.errors import DomainError, SplitBoundaryError, TemperatureSignError


@dataclass(frozen=True)
class StatePoint:
    """A state whose work coordinates V are a tuple, as these versions take."""

    U: float
    V: tuple

    def coords(self):
        return (self.U,) + tuple(self.V)


def point(U, V):
    if isinstance(V, (int, float)):
        V = (float(V),)
    return StatePoint(float(U), tuple(float(v) for v in V))


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SCAN_POINTS = 33  # thermal_split's coarse scan for maximizer brackets


@dataclass
class TemperatureValue:
    T: float
    step: float


def temperature(model, X, h_rel=1e-6):
    """1/T as the energy derivative of the entropy oracle, central differences.

    Raises when the stencil leaves the domain or the result is not positive.
    """
    if model.entropy is None:
        raise DomainError("temperature needs an entropy oracle")
    model.require_interior(X)
    h = h_rel * max(1.0, abs(X.U))
    for u in (X.U - h, X.U + h):
        if not model.domain.contains((u,) + tuple(X.V)):
            raise DomainError(
                "temperature stencil leaves the domain at %s" % (X,)
            )
    ds_du = (model.entropy(X.U + h, X.V) - model.entropy(X.U - h, X.V)) / (2.0 * h)
    if ds_du <= 0.0:
        raise TemperatureSignError(
            "non-positive temperature at %s in %s" % (X, model.name)
        )
    return TemperatureValue(T=1.0 / ds_du, step=h)


@dataclass
class SplitResult:
    """Equilibrium partition of a joined state; alternatives list any other
    local maximizers found (a flagged degeneracy for non-concave oracles)."""

    X1: StatePoint
    X2: StatePoint
    total_entropy: float
    alternatives: list = field(default_factory=list)

    @property
    def degenerate(self):
        return bool(self.alternatives)

    def __iter__(self):
        return iter((self.X1, self.X2))


def _golden_max(f, a, b, tol):
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def thermal_split(join, U, V1, V2):
    """Split the joined state (U, V1, V2) into the entropy-maximizing pair.

    A coarse scan brackets every local maximizer; each bracket is refined by
    golden-section search and polished by bisecting the derivative sign.  The
    partition tolerance is 1e-10 relative to the total energy.  A maximizer
    pressed against the admissible boundary raises SplitBoundaryError.
    """
    m1, m2 = join.left, join.right
    if m1.entropy is None or m2.entropy is None:
        raise DomainError("thermal split needs entropy oracles on both sides")
    V1 = tuple(float(v) for v in V1)
    V2 = tuple(float(v) for v in V2)
    lo, hi = join.energy_interval(U, V1, V2)
    width = hi - lo
    edge = 1e-9 * width
    lo, hi = lo + edge, hi - edge
    tol = 1e-10 * max(abs(U), 1.0)

    def total(u1):
        return m1.entropy(u1, V1) + m2.entropy(U - u1, V2)

    # coarse scan for local maxima brackets
    grid = [lo + k * (hi - lo) / (SCAN_POINTS - 1) for k in range(SCAN_POINTS)]
    values = [total(u) for u in grid]
    brackets = []
    for k in range(len(grid)):
        left_ok = k == 0 or values[k] >= values[k - 1]
        right_ok = k == len(grid) - 1 or values[k] >= values[k + 1]
        if left_ok and right_ok:
            a = grid[max(k - 1, 0)]
            b = grid[min(k + 1, len(grid) - 1)]
            brackets.append((a, b))

    # the derivative stencil must stay well above the float noise floor of
    # the entropy values, or the sign bisection dissolves into noise
    h = max(1e-5 * width, 1e3 * tol)

    def deriv(u):
        return total(u + h) - total(u - h)

    candidates = []
    for a, b in brackets:
        da = max(a, lo + h)
        db = min(b, hi - h)
        if da < db and deriv(da) > 0.0 > deriv(db):
            x_lo, x_hi = da, db
            while x_hi - x_lo > tol:
                mid = 0.5 * (x_lo + x_hi)
                if deriv(mid) > 0.0:
                    x_lo = mid
                else:
                    x_hi = mid
            u_star = 0.5 * (x_lo + x_hi)
        else:
            u_star = _golden_max(total, a, b, max(tol, 1e-13))
        candidates.append((total(u_star), u_star))

    if not candidates:
        raise SplitBoundaryError("no interior entropy maximizer found")
    candidates.sort(reverse=True)
    best_val, best_u = candidates[0]
    if best_u - lo <= 2.0 * edge + tol or hi - best_u <= 2.0 * edge + tol:
        raise SplitBoundaryError(
            "entropy maximizer sits on the boundary of the admissible "
            "energy interval [%g, %g]" % (lo, hi)
        )
    alternatives = []
    value_tol = 1e-9 * max(1.0, abs(best_val))
    for val, u in candidates[1:]:
        if abs(val - best_val) <= value_tol and abs(u - best_u) > 10.0 * tol:
            alternatives.append(point(u, V1))
    return SplitResult(
        X1=point(best_u, V1),
        X2=point(U - best_u, V2),
        total_entropy=best_val,
        alternatives=alternatives,
    )


def isotherm_state(model, V, T_target, tol=1e-12):
    """State of the model with work coordinates V and temperature T_target.

    Bisects the energy; returns None when the temperature range at V does not
    bracket the target (the model cannot reach it there).
    """
    V = tuple(float(v) for v in V)
    lo, hi = model.domain.lo[0], model.domain.hi[0]
    pad = 1e-4 * (hi - lo) + 2e-6 * max(1.0, abs(hi))
    lo, hi = lo + pad, hi - pad

    def t_at(u):
        return temperature(model, StatePoint(u, V)).T

    t_lo, t_hi = t_at(lo), t_at(hi)
    if not (min(t_lo, t_hi) <= T_target <= max(t_lo, t_hi)):
        return None
    increasing = t_hi >= t_lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, abs(mid)):
            break
        if (t_at(mid) < T_target) == increasing:
            lo = mid
        else:
            hi = mid
    return StatePoint(0.5 * (lo + hi), V)
