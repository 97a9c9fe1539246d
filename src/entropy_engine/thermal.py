"""Thermal join, equilibrium splitting, temperature and heat-flow checks.

Two simple systems coupled so that only the total energy is conserved form a
new simple system.  Splitting that join back into two states is done by
maximizing the total entropy over the energy partition; two states are in
thermal equilibrium when the maximizer reproduces their own energies, which
for smooth concave oracles coincides with equal temperature.
"""

import math
from collections import namedtuple

from .errors import DomainError, SplitBoundaryError, TemperatureSignError
from .roots import brent_root
from .simple import StatePoint, point

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SCAN_POINTS = 33  # thermal_split's coarse scan for maximizer brackets
N_PROBES = 17  # isotherm states check_transversality visits


class ThermalJoin(namedtuple("ThermalJoin", "left right")):
    """The simple system obtained by thermally coupling two models."""

    __slots__ = ()

    def energy_interval(self, U, V1, V2):
        """Open admissible interval for the left share of the total energy.

        Raises DomainError when V1 or V2 leaves its model's open V range or
        no partition of U is admissible.
        """
        self.left.require_work_coordinates(V1)
        self.right.require_work_coordinates(V2)
        lo = max(self.left.domain.lo[0], U - self.right.domain.hi[0])
        hi = min(self.left.domain.hi[0], U - self.right.domain.lo[0])
        if lo >= hi:
            raise DomainError(
                "total energy %g has no admissible partition at V1=%s V2=%s"
                % (U, V1, V2)
            )
        return lo, hi


def temperature(model, X):
    """T from 1/T = dS/dU of the entropy oracle, by central differences with
    a step of 1e-6 * max(1, |U|).

    Raises when the stencil leaves the domain or the result is not positive.
    """
    S = model.entropy
    if S is None:
        raise DomainError("temperature needs an entropy oracle")
    model.require_interior(X)
    U, V = X
    h = 1e-6 * max(1.0, abs(U))
    down, up = U - h, U + h  # X is interior
    if not (model.domain.lo[0] < down and up < model.domain.hi[0]):
        raise DomainError("temperature stencil leaves the domain at %s" % (X,))
    ds_du = (S(up, V) - S(down, V)) / (2.0 * h)
    if ds_du <= 0.0:
        raise TemperatureSignError("non-positive temperature at %s in %s"
                                   % (X, model.name))
    return 1.0 / ds_du


class SplitResult(namedtuple("SplitResult", "X1 X2 total_entropy alternatives",
                             defaults=((),))):
    """Equilibrium partition of a joined state; alternatives list any other
    local maximizers found (a flagged degeneracy for non-concave oracles)."""

    __slots__ = ()

    @property
    def degenerate(self):
        return bool(self.alternatives)


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

    A coarse scan brackets every local maximizer; each bracket is polished by
    Brent's method on the sign change of the central-difference derivative,
    or by golden-section search where the derivative shows no sign change.
    The partition tolerance is 1e-10 relative to the total energy.  A maximizer
    pressed against the admissible boundary raises SplitBoundaryError.
    """
    s1, s2 = join.left.entropy, join.right.entropy
    if s1 is None or s2 is None:
        raise DomainError("thermal split needs entropy oracles on both sides")
    lo, hi = join.energy_interval(U, V1, V2)
    width = hi - lo
    edge = 1e-9 * width
    lo, hi = lo + edge, hi - edge
    tol = 1e-10 * max(abs(U), 1.0)

    def total(u1):
        return s1(u1, V1) + s2(U - u1, V2)

    # coarse scan for local maxima brackets
    grid = [lo + k * (hi - lo) / (SCAN_POINTS - 1) for k in range(SCAN_POINTS)]
    values = [s1(u, V1) + s2(U - u, V2) for u in grid]
    brackets = []
    for k in range(len(grid)):
        left_ok = k == 0 or values[k] >= values[k - 1]
        right_ok = k == len(grid) - 1 or values[k] >= values[k + 1]
        if left_ok and right_ok:
            a = grid[max(k - 1, 0)]
            b = grid[min(k + 1, len(grid) - 1)]
            brackets.append((a, b))

    # the derivative stencil must stay well above the float noise floor of
    # the entropy values, or its sign change dissolves into noise
    h = max(1e-5 * width, 1e3 * tol)

    def deriv(u):
        up, down = u + h, u - h
        return s1(up, V1) + s2(U - up, V2) - (s1(down, V1) + s2(U - down, V2))

    candidates = []
    for a, b in brackets:
        da = max(a, lo + h)
        db = min(b, hi - h)
        if da < db and (f_da := deriv(da)) > 0.0 > (f_db := deriv(db)):
            u_star = brent_root(deriv, da, db, f_da, f_db, tol)
        else:
            u_star = _golden_max(total, a, b, max(tol, 1e-13))
        candidates.append((total(u_star), u_star))

    if not candidates:
        raise SplitBoundaryError("no interior entropy maximizer found")
    candidates.sort(reverse=True)
    best_val, best_u = candidates[0]
    if best_u - lo <= 2.0 * edge + tol or hi - best_u <= 2.0 * edge + tol:
        raise SplitBoundaryError("entropy maximizer sits on the boundary of the "
                                 "admissible energy interval [%g, %g]" % (lo, hi))
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


def in_thermal_equilibrium(model1, X1, model2, X2):
    """True when re-splitting the thermal join reproduces the given energies,
    to within 1e-9 relative to the total energy."""
    join = ThermalJoin(model1, model2)
    U = X1.U + X2.U
    split = thermal_split(join, U, X1.V, X2.V)
    return abs(split.X1.U - X1.U) <= 1e-9 * max(abs(U), 1.0)


FlowReport = namedtuple("FlowReport", "T1 T2 dU1 ok note", defaults=("",))


def check_energy_flow(model1, X1, model2, X2):
    """Energy must flow from the hotter system to the colder one.

    Splits the join of the two states and compares each side's energy change
    against the initial temperature ordering, both up to 1e-9 relative; equal
    temperatures must move essentially no energy.
    """
    tol = 1e-9
    t1 = temperature(model1, X1)
    t2 = temperature(model2, X2)
    U = X1.U + X2.U
    split = thermal_split(ThermalJoin(model1, model2), U, X1.V, X2.V)
    du1 = split.X1.U - X1.U
    scale = max(abs(U), 1.0)
    t_scale = max(t1, t2)
    if abs(t1 - t2) <= tol * t_scale:
        ok = abs(du1) <= 1e-6 * scale
        note = "already in equilibrium"
    elif t1 > t2:
        ok = du1 < tol * scale
        note = "hot left side must lose energy"
    else:
        ok = du1 > -tol * scale
        note = "cold left side must gain energy"
    return FlowReport(T1=t1, T2=t2, dU1=du1, ok=ok, note=note)


class ZerothLawReport(namedtuple("ZerothLawReport",
                                 "checked non_equilibrium violations undecided",
                                 defaults=(0,))):
    __slots__ = ()

    @property
    def holds(self):
        return not self.violations


def check_zeroth_law(triples):
    """Transitivity of thermal equilibrium over (model, state) triples.

    Triples whose first two pairs are not in equilibrium exercise nothing and
    are only counted; a violation is equilibrium of (1,2) and (2,3) without
    equilibrium of (1,3).  Pairs whose equilibrium split has no interior
    solution inside the finite domains cannot be decided and are counted
    separately, never raised.
    """
    checked = 0
    non_eq = 0
    undecided = 0
    violations = []
    for (m1, x1), (m2, x2), (m3, x3) in triples:
        try:
            e12 = in_thermal_equilibrium(m1, x1, m2, x2)
            e23 = in_thermal_equilibrium(m2, x2, m3, x3)
        except (SplitBoundaryError, DomainError):
            undecided += 1
            continue
        if not (e12 and e23):
            non_eq += 1
            continue
        try:
            e13 = in_thermal_equilibrium(m1, x1, m3, x3)
        except (SplitBoundaryError, DomainError):
            undecided += 1
            continue
        checked += 1
        if not e13:
            violations.append(((m1.name, x1), (m2.name, x2), (m3.name, x3)))
    return ZerothLawReport(checked, non_eq, violations, undecided)


def isotherm_state(model, V, T_target):
    """State of the model with work coordinate V and temperature T_target.

    Solves T(U) = T_target for the energy by Brent's method to within
    1e-12 * max(1, |U|); returns None when the temperature range at V does not
    bracket the target (the model cannot reach it there).
    """
    lo, hi = model.domain.lo[0], model.domain.hi[0]
    pad = 1e-4 * (hi - lo) + 2e-6 * max(1.0, abs(hi))
    lo, hi = lo + pad, hi - pad

    def excess(u):
        return temperature(model, StatePoint(u, V)) - T_target

    f_lo, f_hi = excess(lo), excess(hi)
    if not min(f_lo, f_hi) <= 0.0 <= max(f_lo, f_hi):
        return None
    # the smallest max(1, |U|) over the bracket
    scale = max(1.0, 0.0 if lo < 0.0 < hi else min(abs(lo), abs(hi)))
    return StatePoint(brent_root(excess, lo, hi, f_lo, f_hi, 1e-12 * scale), V)


def isotherm_samples(model, T_target, v_grid):
    """States with temperature T_target along a grid of the work coordinate."""
    states = (isotherm_state(model, v, T_target) for v in v_grid)
    return [state for state in states if state is not None]


TransversalityReport = namedtuple(
    "TransversalityReport", "found below above temperature probes",
    defaults=(None, None, 0.0, 0),
)


def check_transversality(model, X):
    """Find isothermal states strictly on both sides of X's adiabat.

    Walks the isotherm through X's own temperature across the whole
    work-coordinate range of the domain and looks for entropies below and
    above the entropy of X by more than 1e-9 relative.  Not finding a pair is
    reported, not raised: it is evidence of a state space splitting into
    pieces.
    """
    if model.entropy is None:
        raise DomainError("transversality check needs an entropy oracle")
    model.require_interior(X)
    T_probe = temperature(model, X)
    s_x = model.entropy(X.U, X.V)
    gap = 1e-9 * max(1.0, abs(s_x))
    lo, hi = model.domain.lo[1], model.domain.hi[1]
    pad = 1e-3 * (hi - lo)
    below = above = None
    probes = 0
    for k in range(N_PROBES):
        v = lo + pad + k * (hi - lo - 2 * pad) / (N_PROBES - 1)
        state = isotherm_state(model, v, T_probe)
        if state is None:
            continue
        probes += 1
        s = model.entropy(state.U, state.V)
        if s < s_x - gap and below is None:
            below = state
        elif s > s_x + gap and above is None:
            above = state
        if below and above:
            return TransversalityReport(True, below, above, T_probe, probes)
    return TransversalityReport(False, below, above, T_probe, probes)
