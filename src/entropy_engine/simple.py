"""Simple systems: energy and a work coordinate, adiabat surfaces, sectors.

A model is an open box domain in (U, V), V being one work coordinate, with a
pressure function and an optional entropy oracle.  Adiabats, dU/dV = -P(U, V),
are integrated along piecewise linear V paths by one Dormand-Prince 5(4)
stepper with an error check on every step: from a first step of 1/100 of the
domain span, a step is accepted when its error estimate is at most tol
(SECTOR_TOL unless the caller passes one) per unit step length, and a rejected
step whose successor falls under MIN_STEP raises.  One run carries its step
and its last slope from waypoint to waypoint, or from target to target, so each
attempted step costs six pressure calls.  No step spans a kink a model
declares, such as a table's grid lines: steps land on them.  The nesting
check compares the forward sectors of two states by the adiabat energies
through each on a common probe grid.
"""

import math
import random
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, IntegrationError, InputFormatError
from .rational import parse_number
from .roots import brent_root

EQUAL_SECTORS = "equal_sectors"
X_INSIDE_Y = "X_inside_Y"
Y_INSIDE_X = "Y_inside_X"
CROSSING = "crossing"
MIN_STEP = 1e-7  # floor of a rejected step's successor
SECTOR_TOL = 1e-8  # default per-step tolerance of an adiabat


StatePoint = namedtuple("StatePoint", "U V")


def point(U, V):
    return StatePoint(float(U), float(V))


class Box(namedtuple("Box", "lo hi")):
    """Open axis-aligned box in (U, V)."""

    __slots__ = ()

    def contains(self, coords):
        (u_lo, v_lo), (u_hi, v_hi) = self
        u, v = coords
        return u_lo < u < u_hi and v_lo < v < v_hi

    def span(self):
        return max(h - l for l, h in zip(self.lo, self.hi))


class SimpleSystemModel:
    """Analytic model of a simple system.

    pressure(U, V) returns the pressure at energy U and work coordinate V;
    entropy(U, V), if present, is the oracle used by the convexity and
    consistency checks and by thermal operations.  lipschitz_bound is the
    declared bound for sampled difference-quotient checks.  kinks holds the
    sorted U lines and V lines on which the pressure's derivatives may jump,
    such as a table's inner grid lines; no adiabat step spans one.
    """

    __slots__ = ("name", "domain", "pressure", "entropy", "lipschitz_bound",
                 "kinks")

    def __init__(self, name, domain, pressure, entropy=None,
                 lipschitz_bound=None, kinks=((), ())):
        self.name = name
        self.domain = domain
        self.pressure = pressure
        self.entropy = entropy
        self.lipschitz_bound = lipschitz_bound
        self.kinks = kinks

    def require_interior(self, state):
        if not self.domain.contains(state):
            raise DomainError("state %s is outside the open domain of %s"
                              % (state, self.name))

    def require_work_coordinates(self, V):
        if not self.domain.lo[1] < V < self.domain.hi[1]:
            raise DomainError("work coordinate %r is not inside the open V range "
                              "of %s" % (V, self.name))


def monatomic_ideal_gas(moles=1, domain=((0.5, 10.0), (0.5, 5.0))):
    """Monatomic ideal gas in natural units: P = 2U/(3V)."""
    n = float(moles)
    log = math.log

    def pressure(U, V):
        return 2.0 * U / (3.0 * V)

    def entropy(U, V):
        return n * log(V * U ** 1.5)

    return SimpleSystemModel(
        name="ideal_gas(n=%s)" % moles,
        domain=Box((domain[0][0], domain[1][0]), (domain[0][1], domain[1][1])),
        pressure=pressure,
        entropy=entropy,
        lipschitz_bound=30.0,
    )


def van_der_waals_gas(moles=1, a=0.2, b=0.02, domain=((1.0, 8.0), (0.6, 4.0))):
    """Van der Waals gas with monatomic heat capacity, natural units; pressure
    and entropy inline the temperature T = (U + a n^2/V)/(c n)."""
    n = float(moles)
    c = 1.5
    ann, nb, cn, log = a * n * n, n * b, c * n, math.log

    def pressure(U, V):
        return n * ((U + ann / V) / cn) / (V - nb) - ann / (V * V)

    def entropy(U, V):
        return n * (log(V - nb) + c * log((U + ann / V) / cn))

    return SimpleSystemModel(
        name="van_der_waals(n=%s)" % moles,
        domain=Box((domain[0][0], domain[1][0]), (domain[0][1], domain[1][1])),
        pressure=pressure,
        entropy=entropy,
        lipschitz_bound=30.0,
    )


def sqrt_singularity_model():
    """Adversarial model: pressure with a square-root kink along U = 1.

    The slope field 2*sqrt(U-1) is not Lipschitz at U = 1, so adiabats
    starting above the line merge into it; the foliation breaks and nesting
    checks must report the defect.  No entropy oracle on purpose.
    """

    def pressure(U, V):
        return -2.0 * math.sqrt(max(U - 1.0, 0.0))

    return SimpleSystemModel(
        name="sqrt_singularity",
        domain=Box((0.5, 0.1), (8.0, 2.0)),
        pressure=pressure,
        entropy=None,
        lipschitz_bound=10.0,
    )


def tabulated_model(u_grid, v_grid, p_values, s_values=None):
    """Model interpolated bilinearly from a rectangular (U, V) grid."""
    u_grid = [float(u) for u in u_grid]
    v_grid = [float(v) for v in v_grid]

    def interp(values, U, V):
        i = min(max(bisect_left(u_grid, U) - 1, 0), len(u_grid) - 2)
        j = min(max(bisect_left(v_grid, V) - 1, 0), len(v_grid) - 2)
        tu = (U - u_grid[i]) / (u_grid[i + 1] - u_grid[i])
        tv = (V - v_grid[j]) / (v_grid[j + 1] - v_grid[j])
        return (
            values[i][j] * (1 - tu) * (1 - tv)
            + values[i + 1][j] * tu * (1 - tv)
            + values[i][j + 1] * (1 - tu) * tv
            + values[i + 1][j + 1] * tu * tv
        )

    def pressure(U, V):
        return interp(p_values, U, V)

    entropy = None
    if s_values is not None:
        def entropy(U, V):
            return interp(s_values, U, V)

    return SimpleSystemModel(
        name="tabulated",
        domain=Box((u_grid[0], v_grid[0]), (u_grid[-1], v_grid[-1])),
        pressure=pressure,
        entropy=entropy,
        kinks=(tuple(u_grid[1:-1]), tuple(v_grid[1:-1])),
    )


def _floats(values, what, increasing=False):
    """A nonempty JSON list of finite numbers, as floats; with `increasing`,
    at least 2 of them in strictly increasing order."""
    out = [float(parse_number(x)) for x in values] if isinstance(values, list) else []
    if not out or not all(map(math.isfinite, out)):
        raise InputFormatError("%s must be a nonempty list of finite numbers, "
                               "got %r" % (what, values))
    if increasing and (len(out) < 2 or any(a >= b for a, b in zip(out, out[1:]))):
        raise InputFormatError("%s must be at least 2 strictly increasing "
                               "numbers, got %r" % (what, values))
    return out


def _table(rows, u_grid, v_grid, what):
    """A len(u_grid) x len(v_grid) JSON array of finite numbers, as floats."""
    out = [_floats(row, what) for row in rows] if isinstance(rows, list) else []
    if [len(row) for row in out] != [len(v_grid)] * len(u_grid):
        raise InputFormatError("%s must be a %d x %d array, got %r"
                               % (what, len(u_grid), len(v_grid), rows))
    return out


def model_from_spec(doc):
    """Build a model from its JSON description.

    A model that cannot be evaluated on its whole open domain raises
    InputFormatError; README's instance formats list the conditions.
    """
    try:
        kind = doc["type"]
        if kind in ("ideal_gas", "van_der_waals"):
            dom = doc.get("domain")
            kwargs = {}
            if dom is not None:
                if not isinstance(dom, dict):
                    raise InputFormatError("domain must be an object, got %r" % (dom,))
                u_lo, u_hi = _floats(dom.get("U"), "domain U", increasing=True)
                v_range = dom.get("V")
                if not isinstance(v_range, list) or len(v_range) != 1:
                    raise InputFormatError("domain V must be a list of one [lo, hi] "
                                           "range, got %r" % (v_range,))
                v_lo, v_hi = _floats(v_range[0], "domain V", increasing=True)
                # so that U ** 1.5, V * V and their products neither overflow
                # nor underflow to 0 inside the box
                if any(x and not 1e-100 <= abs(x) <= 1e100
                       for x in (u_lo, u_hi, v_lo, v_hi)):
                    raise InputFormatError("domain bounds must be 0 or of magnitude "
                                           "1e-100 to 1e100, got %r" % (dom,))
                kwargs["domain"] = ((u_lo, u_hi), (v_lo, v_hi))
            moles = Fraction(parse_number(doc.get("moles", 1)))
            if moles <= 0:
                raise InputFormatError("moles must be positive, got %s" % moles)
            if kind == "ideal_gas":
                a = b = 0.0  # a van der Waals gas with a = b = 0
                model = monatomic_ideal_gas(moles, **kwargs)
            else:
                # absent a and b take van_der_waals_gas's defaults
                a, b = _floats([doc.get("a", 0.2), doc.get("b", 0.02)], "a and b")
                model = van_der_waals_gas(moles, a, b, **kwargs)
            u_lo, v_lo = model.domain.lo
            if min(a, b, u_lo) < 0 or v_lo < float(moles) * b:
                raise InputFormatError(
                    "%s needs a, b, U_lo >= 0 and V_lo >= moles * b, got a=%r, "
                    "b=%r, U_lo=%r, V_lo=%r" % (model.name, a, b, u_lo, v_lo))
            return model
        if kind == "sqrt_singularity":
            return sqrt_singularity_model()
        if kind == "tabulated":
            u_grid = _floats(doc["u_grid"], "u_grid", increasing=True)
            v_grid = _floats(doc["v_grid"], "v_grid", increasing=True)
            s_values = doc.get("entropy_grid")
            return tabulated_model(
                u_grid, v_grid,
                _table(doc["pressure_grid"], u_grid, v_grid, "pressure_grid"),
                None if s_values is None
                else _table(s_values, u_grid, v_grid, "entropy_grid"),
            )
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError("bad model spec: %s" % exc) from exc
    raise InputFormatError("unknown model type %r" % kind)


AdiabatSurface = namedtuple("AdiabatSurface", "base samples")
AdiabatSurface.__doc__ = """Sampled adiabat through `base`: the base and every
accepted step's (U, V) along the integration path."""


def _dp_step(pressure, u, k1, v, dv, v_end):
    """One Dormand-Prince 5(4) step of dU/dV = -P(U, V) from (u, v), where
    the slope is k1, to v_end = v + dv: the energy and slope at v_end and
    the error estimate."""
    # the tableau of Dormand & Prince, J. Comput. Appl. Math. 6 (1980)
    # 19-26; the fifth-order weights are the last stage's row, so k7 is the
    # next step's k1, and the error weights are the fifth- minus the
    # fourth-order weights
    k2 = -pressure(u + dv * (1 / 5 * k1), v + 1 / 5 * dv)
    k3 = -pressure(u + dv * (3 / 40 * k1 + 9 / 40 * k2), v + 3 / 10 * dv)
    k4 = -pressure(u + dv * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3),
                   v + 4 / 5 * dv)
    k5 = -pressure(u + dv * (19372 / 6561 * k1 - 25360 / 2187 * k2
                             + 64448 / 6561 * k3 - 212 / 729 * k4),
                   v + 8 / 9 * dv)
    k6 = -pressure(u + dv * (9017 / 3168 * k1 - 355 / 33 * k2
                             + 46732 / 5247 * k3 + 49 / 176 * k4
                             - 5103 / 18656 * k5), v_end)
    u_end = u + dv * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                      - 2187 / 6784 * k5 + 11 / 84 * k6)
    k7 = -pressure(u_end, v_end)
    err = abs(dv * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                    - 17253 / 339200 * k5 + 22 / 525 * k6 - 1 / 40 * k7))
    return u_end, k7, err


def _line_crossed(lines, u, u_end, margin):
    """The first of the sorted lines strictly between u and u_end, passing
    over one within margin of u, where the last step landed; or None."""
    if u_end > u:
        i = bisect_right(lines, u + margin)
        return lines[i] if i < len(lines) and lines[i] < u_end else None
    i = bisect_left(lines, u - margin) - 1
    return lines[i] if i >= 0 and lines[i] > u_end else None


def _dp_segment(model, u, k1, v, v_to, h, tol, samples=None):
    """Dormand-Prince 5(4) steps of dU/dV = -P(U, V) from (u, v) to v_to,
    each accepted when its error estimate is at most tol per unit step length.

    k1 is the slope at (u, v), or None; h is the step proposal.  Returns the
    energy and slope at v_to, where the last step lands exactly, and the
    proposal to carry on.  Accepted points are appended to samples when it
    is given.  The step rules are in README's "Numerical tolerances".  No
    step spans a line of model.kinks: a step lands on each V line on the
    way, and a step whose end energy lies past a U line is cut to end on it,
    at the zero Brent's method finds.  A step cut to land leaves the
    proposal as it was.  A rejected step whose successor falls under
    MIN_STEP raises IntegrationError, and so does an accepted point outside
    the open domain, with exit_energy set.
    """
    pressure = model.pressure
    (u_lo, v_lo), (u_hi, v_hi) = model.domain.lo, model.domain.hi
    u_lines, v_lines = model.kinks
    if k1 is None:
        k1 = -pressure(u, v)
    stops = (sorted((x for x in v_lines if min(v, v_to) < x < max(v, v_to)),
                    reverse=v_to < v) if v_lines else []) + [v_to]
    while True:
        rest = stops[0] - v
        land = abs(rest) <= h
        dv = rest if land else math.copysign(h, rest)
        v_end = stops[0] if land else v + dv
        u_end, k7, err = _dp_step(pressure, u, k1, v, dv, v_end)
        line = None
        if u_lines:
            # a line within 64 ulps of u, or of the energy 64 ulps of V
            # ahead, is the one the last step landed on: a step cut to it
            # might not move v at all
            margin = 64.0 * (math.ulp(u) + abs(k1) * math.ulp(v))
            line = _line_crossed(u_lines, u, u_end, margin)
        if line is not None:
            def gap(s):
                return _dp_step(pressure, u, k1, v, s, v + s)[0] - line

            dv = brent_root(gap, 0.0, dv, u - line, u_end - line,
                            1e-15 * abs(dv))
            land, v_end = False, v + dv
            u_end, k7, err = _dp_step(pressure, u, k1, v, dv, v_end)
        bound = tol * abs(dv)
        ratio = bound / err if err else math.inf
        if not err <= bound:  # a NaN estimate is never accepted
            # a NaN, zero or negative ratio shrinks by the full 1/5
            h = abs(dv) * (max(0.2, 0.9 * ratio ** 0.2)
                           if 0.0 < ratio < 1.0 else 0.2)
            if h < MIN_STEP:
                raise IntegrationError("step fell below %g before the "
                                       "tolerance %g was met" % (MIN_STEP, tol))
            continue
        if not land and line is None:
            h = abs(dv) * min(5.0, 0.9 * ratio ** 0.2)
        if not (u_lo < u_end < u_hi and v_lo < v_end < v_hi):
            exc = IntegrationError("adiabat left the domain of %s at U=%g V=%s"
                                   % (model.name, u_end, v_end))
            exc.exit_energy = u_end
            raise exc
        if samples is not None:
            samples.append(StatePoint(u_end, v_end))
        u, v, k1 = u_end, v_end, k7
        if land:
            if v == v_to:
                return u, k1, h
            stops.pop(0)


def integrate_adiabat(model, X, waypoints, tol=SECTOR_TOL):
    """Integrate the adiabat through X along a piecewise-linear V path.

    The waypoints are V values.  The path is one Dormand-Prince 5(4) run,
    from an initial step of 1/100 of the domain span, that carries its step
    proposal and its last slope from one waypoint to the next.  Each step's
    error estimate must be at most tol per unit step length, and a rejected
    step whose successor falls under MIN_STEP raises.  The samples are X and
    every accepted step's end point, each waypoint and each kink crossed
    among them.
    """
    model.require_interior(X)
    samples = [X]
    u, k, v, h = X.U, None, X.V, model.domain.span() / 100.0
    for wp in waypoints:
        v_next = float(wp)
        if v_next != v:
            u, k, h = _dp_segment(model, u, k, v, v_next, h, tol, samples)
            v = v_next
    return AdiabatSurface(base=X, samples=samples)


def adiabat_energy_at(model, X, v_targets, tol=SECTOR_TOL):
    """Adiabat energies through X at each target V, one sweep per direction.

    The targets are V values, visited in two monotone sweeps from X; each sweep
    is one Dormand-Prince 5(4) run as in integrate_adiabat, from an initial
    step of 1/100 of the domain span, carrying its step proposal and slope from
    target to target and keeping only the energy at each.  A target on or
    outside the open V range raises DomainError before anything is integrated,
    and so does an X outside the open domain when some target differs from
    X.V.  A sweep that leaves the domain through the energy floor or ceiling
    records -inf or +inf for the remaining targets in that direction instead
    of raising; a step that falls under MIN_STEP raises.
    """
    targets = [float(t) for t in v_targets]
    v_lo, v_hi = model.domain.lo[1], model.domain.hi[1]
    for t in targets:
        if not v_lo < t < v_hi:
            raise DomainError("target V=%r is outside the open V range "
                              "(%r, %r) of %s" % (t, v_lo, v_hi, model.name))
    step = model.domain.span() / 100.0
    mid_u = 0.5 * (model.domain.lo[0] + model.domain.hi[0])
    result = {}
    base = X.V
    if any(t != base for t in targets):
        # every later segment starts where _dp_segment accepted a step,
        # strictly inside the box, so X is the one start to check
        model.require_interior(X)
    rights = sorted(t for t in targets if t >= base)
    lefts = sorted((t for t in targets if t < base), reverse=True)
    for chain in (rights, lefts):
        u, k, v, h = X.U, None, base, step
        escaped = None
        for t in chain:
            if escaped is None and t != v:
                try:
                    u, k, h = _dp_segment(model, u, k, v, t, h, tol)
                except IntegrationError as exc:
                    # the MIN_STEP error carries no exit energy
                    exit_u = getattr(exc, "exit_energy", None)
                    if exit_u is None:
                        raise
                    escaped = math.inf if exit_u >= mid_u else -math.inf
                else:
                    v = t
            result[t] = u if escaped is None else escaped
    return [result[t] for t in targets]


NestingResult = namedtuple("NestingResult", "case violation deltas probes")


def check_nesting(model, X, Y):
    """Classify the forward sectors of X and Y as equal or strictly nested.

    The adiabats through X and Y are integrated to a common probe grid, seven
    V values evenly spread over the V range less 5% at each end, with
    tolerance SECTOR_TOL and compared.  A difference counts as zero up to
    max(1e-6 * scale, 50 * SECTOR_TOL), scale being the largest finite
    energy seen (at least 1).  Sign-mixed differences, or differences that
    both vanish and reach 100 times that on the same grid (touching sheets),
    are a foliation defect and come back flagged as a violation with case
    "crossing"; sound models always land in exactly one of the three nesting
    cases.
    """
    model.require_interior(X)
    model.require_interior(Y)
    lo, hi = model.domain.lo[1], model.domain.hi[1]
    pad = 0.05 * (hi - lo)
    probes = [lo + pad + k * (hi - lo - 2 * pad) / 6.0 for k in range(7)]
    ux = adiabat_energy_at(model, X, probes)
    uy = adiabat_energy_at(model, Y, probes)
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
    eq_tol = max(1e-6 * scale, 50.0 * SECTOR_TOL)
    pos = any(d > eq_tol for d in deltas)
    neg = any(d < -eq_tol for d in deltas)
    near_zero = any(abs(d) <= eq_tol for d in deltas)
    finite_deltas = [abs(d) for d in deltas if math.isfinite(d)]
    big = bool(finite_deltas) and max(finite_deltas) >= 100.0 * eq_tol
    if pos and neg:
        return NestingResult(CROSSING, True, deltas, probes)
    if not pos and not neg:
        return NestingResult(EQUAL_SECTORS, False, deltas, probes)
    if near_zero and big:
        return NestingResult(CROSSING, True, deltas, probes)
    if pos:
        return NestingResult(X_INSIDE_Y, False, deltas, probes)
    return NestingResult(Y_INSIDE_X, False, deltas, probes)


class CheckReport(namedtuple("CheckReport", "name checked violations details",
                             defaults=(None,))):
    """A sampled check's outcome; details maps extra figures by name, or is
    None."""

    __slots__ = ()

    @property
    def holds(self):
        return not self.violations


def check_convexity(model, X, Y):
    """Entropy of a convex combination must dominate the combined entropies,
    up to 1e-12 relative, at the weights 1/4, 1/2 and 3/4 (at 0 and 1 the
    mixture is Y or X itself, so the two sides are equal)."""
    if model.entropy is None:
        raise DomainError("convexity check needs an entropy oracle")
    model.require_interior(X)
    model.require_interior(Y)
    violations = []
    checked = 0
    s_x, s_y = model.entropy(X.U, X.V), model.entropy(Y.U, Y.V)
    for t in (0.25, 0.5, 0.75):
        mix = StatePoint(t * X.U + (1 - t) * Y.U, t * X.V + (1 - t) * Y.V)
        lhs = t * s_x + (1 - t) * s_y
        rhs = model.entropy(mix.U, mix.V)
        checked += 1
        scale = max(1.0, abs(lhs), abs(rhs))
        if rhs < lhs - 1e-12 * scale:
            violations.append((t, rhs - lhs))
    return CheckReport("convexity", checked, violations)


def pressure_consistency(model, X):
    """Gap between the pressure and the oracle's tangent-plane slope.

    The slope is (dS/dV)/(dS/dU) by central differences with a step of
    1e-5 * max(1, |c|) per coordinate c; the stencil must stay inside the
    domain.
    """
    if model.entropy is None:
        raise DomainError("consistency check needs an entropy oracle")
    model.require_interior(X)
    U, V = X
    hu = 1e-5 * max(1.0, abs(U))
    hv = 1e-5 * max(1.0, abs(V))
    (u_lo, v_lo), (u_hi, v_hi) = model.domain  # X is interior
    if not (u_lo < U - hu and U + hu < u_hi and v_lo < V - hv and V + hv < v_hi):
        raise DomainError("finite-difference stencil leaves the domain at %s" % (X,))
    S = model.entropy
    ds_du = (S(U + hu, V) - S(U - hu, V)) / (2.0 * hu)
    if ds_du == 0:
        raise DomainError("dS/dU vanishes at %s: no temperature" % (X,))
    ds_dv = (S(U, V + hv) - S(U, V - hv)) / (2.0 * hv)
    return abs(ds_dv / ds_du - model.pressure(U, V))


def check_lipschitz(model, samples=200, seed=0):
    """Sampled difference quotients of the pressure against the model's
    lipschitz_bound.

    Random pairs lie 1e-4 of the domain apart per axis.  Each axis is then
    swept five times with a window tightening around its worst quotient:
    around a kink the quotient keeps growing and crosses any fixed bound,
    while a genuinely Lipschitz pressure stays flat under shrinking.
    """
    bound = model.lipschitz_bound
    if bound is None:
        raise DomainError("no Lipschitz bound declared for %s" % model.name)
    rng = random.Random(seed)
    lo, hi = model.domain.lo, model.domain.hi
    violations = []
    scored = []

    def quotient(base, step):
        other = [b + s for b, s in zip(base, step)]
        if not model.domain.contains(tuple(other)):
            return None
        dist = max(abs(s) for s in step)
        if dist == 0.0:
            return None
        return abs(model.pressure(*base) - model.pressure(*other)) / dist

    for _ in range(samples):
        base = [l + (0.05 + 0.9 * rng.random()) * (u - l) for l, u in zip(lo, hi)]
        step = [(rng.random() - 0.5) * 2.0 * 1e-4 * (u - l) for l, u in zip(lo, hi)]
        quot = quotient(base, step)
        if quot is None:
            continue
        scored.append(quot)
        if quot > bound:
            violations.append((tuple(base), quot))
    worst = max(scored) if scored else 0.0

    # deterministic per-axis zoom: a kink crossing the domain makes the
    # quotient grow without bound as the sweep window tightens onto it
    center = [0.5 * (l + u) for l, u in zip(lo, hi)]
    for axis in range(len(lo)):
        a, b = lo[axis], hi[axis]
        span = b - a
        win_lo, win_hi = a + 0.02 * span, b - 0.02 * span
        for _ in range(5):
            n_pts = 33
            spacing = (win_hi - win_lo) / (n_pts - 1)
            offset = spacing / 8.0
            best_t, best_q = None, -1.0
            for k in range(n_pts):
                base = list(center)
                base[axis] = win_lo + k * spacing
                step = [0.0] * len(lo)
                step[axis] = offset
                quot = quotient(base, step)
                if quot is not None and quot > best_q:
                    best_q, best_t = quot, base[axis]
            if best_t is None:
                break
            worst = max(worst, best_q)
            if best_q > bound:
                marker = list(center)
                marker[axis] = best_t
                violations.append((tuple(marker), best_q))
                break
            pad = 2.0 * spacing
            win_lo = max(a + 1e-9 * span, best_t - pad)
            win_hi = min(b - 1e-9 * span, best_t + pad)
    return CheckReport(
        "lipschitz", samples, violations, details={"worst_quotient": worst}
    )
