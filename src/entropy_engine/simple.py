"""Simple systems: energy + work coordinates, adiabat surfaces, sectors.

A model is an open box domain in (U, V1..Vn) with a pressure function and an
optional entropy oracle.  Adiabats of one-coordinate models are integrated as
U(V) along piecewise linear paths by a scalar fixed-step RK4 kernel, refined
by halving until a Richardson check meets the tolerance; a half-step pass is
reused as the next coarse pass.  Forward-sector queries compare a state
against the integrated (or oracle) adiabat through another state.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, IntegrationError, InputFormatError
from .rational import parse_number

EQUAL_SECTORS = "equal_sectors"
X_INSIDE_Y = "X_inside_Y"
Y_INSIDE_X = "Y_inside_X"
CROSSING = "crossing"
MIN_STEP = 1e-7  # default floor of the RK4 step in Richardson refinement


@dataclass(frozen=True)
class StatePoint:
    U: float
    V: tuple

    def coords(self):
        return (self.U,) + tuple(self.V)


def point(U, V):
    if isinstance(V, (int, float)):
        V = (float(V),)
    return StatePoint(float(U), tuple(float(v) for v in V))


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box; first coordinate is energy."""

    lo: tuple
    hi: tuple

    def contains(self, coords, margin=0.0):
        return all(
            l + margin < c < h - margin
            for c, l, h in zip(coords, self.lo, self.hi)
        )

    def span(self):
        return max(h - l for l, h in zip(self.lo, self.hi))


@dataclass
class SimpleSystemModel:
    """Analytic model of a simple system.

    pressure(U, V) returns the generalized pressure vector; entropy(U, V), if
    present, is the oracle used for sector queries and thermal operations.
    lipschitz_bound is the declared bound for sampled difference-quotient
    checks.
    """

    name: str
    n: int
    domain: Box
    pressure: object
    entropy: object = None
    moles: Fraction = Fraction(1)
    lipschitz_bound: float = None

    def require_interior(self, state):
        if not self.domain.contains(state.coords()):
            raise DomainError(
                "state %s is outside the open domain of %s" % (state, self.name)
            )

    def require_work_coordinates(self, V):
        box = self.domain
        if len(V) != self.n or not all(
                l < v < h for v, l, h in zip(V, box.lo[1:], box.hi[1:])):
            raise DomainError("work coordinates %s are not %d values inside the "
                              "open V range of %s" % (tuple(V), self.n, self.name))


def monatomic_ideal_gas(moles=1, domain=((0.5, 10.0), (0.5, 5.0))):
    """Monatomic ideal gas in natural units: P = 2U/(3V)."""
    n = float(moles)

    def pressure(U, V):
        return (2.0 * U / (3.0 * V[0]),)

    def entropy(U, V):
        return n * math.log(V[0] * U ** 1.5)

    return SimpleSystemModel(
        name="ideal_gas(n=%s)" % moles,
        n=1,
        domain=Box((domain[0][0], domain[1][0]), (domain[0][1], domain[1][1])),
        pressure=pressure,
        entropy=entropy,
        moles=Fraction(moles),
        lipschitz_bound=30.0,
    )


def van_der_waals_gas(moles=1, a=0.2, b=0.02, domain=((1.0, 8.0), (0.6, 4.0))):
    """Van der Waals gas with monatomic heat capacity, natural units."""
    n = float(moles)
    c = 1.5

    def temperature_of(U, V):
        return (U + a * n * n / V[0]) / (c * n)

    def pressure(U, V):
        T = temperature_of(U, V)
        return (n * T / (V[0] - n * b) - a * n * n / (V[0] * V[0]),)

    def entropy(U, V):
        T = temperature_of(U, V)
        return n * (math.log(V[0] - n * b) + c * math.log(T))

    return SimpleSystemModel(
        name="van_der_waals(n=%s)" % moles,
        n=1,
        domain=Box((domain[0][0], domain[1][0]), (domain[0][1], domain[1][1])),
        pressure=pressure,
        entropy=entropy,
        moles=Fraction(moles),
        lipschitz_bound=30.0,
    )


def sqrt_singularity_model(domain=((0.5, 8.0), (0.1, 2.0))):
    """Adversarial model: pressure with a square-root kink along U = 1.

    The slope field 2*sqrt(U-1) is not Lipschitz at U = 1, so adiabats
    starting above the line merge into it; the foliation breaks and nesting
    checks must report the defect.  No entropy oracle on purpose.
    """

    def pressure(U, V):
        return (-2.0 * math.sqrt(max(U - 1.0, 0.0)),)

    return SimpleSystemModel(
        name="sqrt_singularity",
        n=1,
        domain=Box((domain[0][0], domain[1][0]), (domain[0][1], domain[1][1])),
        pressure=pressure,
        entropy=None,
        lipschitz_bound=10.0,
    )


def tabulated_model(u_grid, v_grid, p_values, s_values=None, name="tabulated"):
    """Model interpolated bilinearly from a rectangular (U, V) grid."""
    u_grid = [float(u) for u in u_grid]
    v_grid = [float(v) for v in v_grid]

    def interp(values, U, v):
        i = min(max(bisect_left(u_grid, U) - 1, 0), len(u_grid) - 2)
        j = min(max(bisect_left(v_grid, v) - 1, 0), len(v_grid) - 2)
        tu = (U - u_grid[i]) / (u_grid[i + 1] - u_grid[i])
        tv = (v - v_grid[j]) / (v_grid[j + 1] - v_grid[j])
        return (
            values[i][j] * (1 - tu) * (1 - tv)
            + values[i + 1][j] * tu * (1 - tv)
            + values[i][j + 1] * (1 - tu) * tv
            + values[i + 1][j + 1] * tu * tv
        )

    def pressure(U, V):
        return (interp(p_values, U, V[0]),)

    entropy = None
    if s_values is not None:
        def entropy(U, V):
            return interp(s_values, U, V[0])

    return SimpleSystemModel(
        name=name,
        n=1,
        domain=Box((u_grid[0], v_grid[0]), (u_grid[-1], v_grid[-1])),
        pressure=pressure,
        entropy=entropy,
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
                u_lo, u_hi = _floats(dom["U"], "domain U", increasing=True)
                v_lo, v_hi = _floats(dom["V"][0], "domain V", increasing=True)
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


@dataclass
class AdiabatSurface:
    """Sampled adiabat through `base`: (U, V) samples along the integration
    path plus the step size and tolerance that produced them."""

    base: StatePoint
    samples: list
    step: float
    tolerance: float


def _rk4_segment(model, u0, v_from, v_to, steps):
    """Energies after each of `steps` RK4 steps of dU = -P dV from v_from to
    v_to; the first step out of the open domain raises IntegrationError with
    exit_energy set."""
    pressure = model.pressure
    (u_lo, v_lo), (u_hi, v_hi) = model.domain.lo[:2], model.domain.hi[:2]
    d = v_to - v_from
    h = 1.0 / steps
    half, sixth = 0.5 * h, h / 6.0
    u, t = u0, 0.0
    v = (v_from + t * d,)
    out = []
    for _ in range(steps):
        # -(0.0 + p * d) is exactly the one-term -sum(p_i * d_i)
        k1 = -(0.0 + pressure(u, v)[0] * d)
        v_mid = (v_from + (t + half) * d,)
        k2 = -(0.0 + pressure(u + half * k1, v_mid)[0] * d)
        k3 = -(0.0 + pressure(u + half * k2, v_mid)[0] * d)
        t += h
        v = (v_from + t * d,)
        k4 = -(0.0 + pressure(u + h * k3, v)[0] * d)
        u = u + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (u_lo < u < u_hi and v_lo < v[0] < v_hi):
            exc = IntegrationError("adiabat left the domain of %s at U=%g V=%s"
                                   % (model.name, u, v))
            exc.exit_energy = u
            raise exc
        out.append(u)
    return out


def _refined_segment(model, u0, v_from, v_to, step, tol, min_step):
    """Step energies of the accepted RK4 pass from v_from to v_to; [] when the
    segment has length 0.  When halving doubles the step count, the last
    half-step pass is the new coarse pass."""
    # a norm, not abs(): a gap under 1e-154 squares to 0 and is skipped
    seg_len = math.sqrt((v_to - v_from) ** 2)
    if seg_len == 0.0:
        return []
    h = min(step, seg_len)
    fine = []
    while True:
        steps = max(1, math.ceil(seg_len / h))
        path = fine if steps == len(fine) else _rk4_segment(
            model, u0, v_from, v_to, steps)
        if tol is None:
            return path
        fine = _rk4_segment(model, u0, v_from, v_to, steps * 2)
        if abs(fine[-1] - path[-1]) <= tol * seg_len:
            return fine
        h /= 2.0
        if h < min_step:
            raise IntegrationError("step fell below %g before the tolerance "
                                   "%g was met" % (min_step, tol))


def _require_one_coordinate(model):
    if model.n != 1:
        raise DomainError("adiabats need one work coordinate; %s has %d"
                          % (model.name, model.n))


def integrate_adiabat(model, X, waypoints, step=None, tol=1e-8, min_step=MIN_STEP):
    """Integrate the adiabat through X along a piecewise-linear V path.

    The model has one work coordinate; waypoints are 1-tuples.  step is the
    RK4 step in work-coordinate length (default: 1/100 of the domain span).
    When tol is not None each segment is Richardson-checked against a
    half-step run, which is reused as the next coarse run, and the step halves
    until the difference is below tol per unit path length; falling under
    min_step raises.
    """
    _require_one_coordinate(model)
    model.require_interior(X)
    if step is None:
        step = model.domain.span() / 100.0
    samples = [X]
    u, v_prev = X.U, X.V[0]
    for wp in waypoints:
        v_next = float(wp[0])
        path = _refined_segment(model, u, v_prev, v_next, step, tol, min_step)
        if not path:
            continue
        d, h, t = v_next - v_prev, 1.0 / len(path), 0.0
        for energy in path:
            t += h  # as the kernel accumulates t, so V matches it bit for bit
            samples.append(StatePoint(energy, (v_prev + t * d,)))
        u, v_prev = path[-1], v_next
    return AdiabatSurface(base=X, samples=samples, step=step, tolerance=tol or 0.0)


def adiabat_energy_at(model, X, v_targets, step=None, tol=1e-8, clip=True):
    """Adiabat energies through X at each target V, one sweep per direction.

    The model has one work coordinate.  The targets are visited in two
    monotone sweeps from X; each segment starts at the end energy of the last
    and is refined as in integrate_adiabat, keeping only its end energy.  A
    target on or outside the open V range raises DomainError before anything
    is integrated.  With clip=True a sweep that leaves the domain through the
    energy floor or ceiling records -inf or +inf for the remaining targets in
    that direction instead of raising.
    """
    _require_one_coordinate(model)
    targets = [tuple(float(c) for c in (t if not isinstance(t, (int, float)) else (t,)))
               for t in v_targets]
    v_lo, v_hi = model.domain.lo[1], model.domain.hi[1]
    for t in targets:
        if not v_lo < t[0] < v_hi:
            raise DomainError("target V=%r is outside the open V range "
                              "(%r, %r) of %s" % (t[0], v_lo, v_hi, model.name))
    if step is None:
        step = model.domain.span() / 100.0
    mid_u = 0.5 * (model.domain.lo[0] + model.domain.hi[0])
    result = {}
    base = X.V[0]
    rights = sorted(t for t in targets if t[0] >= base)
    lefts = sorted((t for t in targets if t[0] < base), reverse=True)
    for chain in (rights, lefts):
        u, v = X.U, (base,)
        escaped = None
        for t in chain:
            if escaped is None and t != v:
                model.require_interior(StatePoint(u, v))
                try:
                    path = _refined_segment(model, u, v[0], t[0], step, tol, MIN_STEP)
                except IntegrationError as exc:
                    if not clip:
                        raise
                    # the min_step error carries no exit energy
                    exit_u = getattr(exc, "exit_energy", mid_u)
                    escaped = math.inf if exit_u >= mid_u else -math.inf
                else:
                    u, v = (path[-1] if path else u), t
            result[t] = u if escaped is None else escaped
    return [result[t] for t in targets]


def forward_sector_contains(model, X, Y, step=None, tol=1e-8):
    """Is Y in the forward sector of X (on or above the adiabat through X)?

    Uses the entropy oracle when the model has one, otherwise integrates the
    adiabat through X to Y's work coordinates; an adiabat that cannot be
    integrated that far raises IntegrationError.
    """
    model.require_interior(X)
    model.require_interior(Y)
    if model.entropy is not None:
        return model.entropy(Y.U, Y.V) >= model.entropy(X.U, X.V)
    u_on = adiabat_energy_at(
        model, X, [tuple(Y.V)], step=step, tol=tol, clip=False
    )[0]
    return Y.U >= u_on


@dataclass
class NestingResult:
    case: str
    violation: bool
    deltas: list
    probes: list


def check_nesting(model, X, Y, probes=None, step=None, tol=1e-8):
    """Classify the forward sectors of X and Y as equal or strictly nested.

    The adiabats through X and Y are integrated to a common probe grid and
    compared.  A difference counts as zero up to max(1e-6 * scale, 50 * tol),
    scale being the largest finite energy seen (at least 1).  Sign-mixed
    differences, or differences that both vanish and reach 100 times that on
    the same grid (touching sheets), are a foliation defect and come back
    flagged as a violation with case "crossing"; sound models always land in
    exactly one of the three nesting cases.
    """
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
    eq_tol = max(1e-6 * scale, 50.0 * tol)
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


@dataclass
class CheckReport:
    name: str
    checked: int
    violations: list
    details: dict = field(default_factory=dict)

    @property
    def holds(self):
        return not self.violations


def check_convexity(model, X, Y, t_grid=(0.0, 0.25, 0.5, 0.75, 1.0), tol=1e-12):
    """Entropy of a convex combination must dominate the combined entropies."""
    if model.entropy is None:
        raise DomainError("convexity check needs an entropy oracle")
    model.require_interior(X)
    model.require_interior(Y)
    violations = []
    checked = 0
    for t in t_grid:
        mix = StatePoint(
            t * X.U + (1 - t) * Y.U,
            tuple(t * a + (1 - t) * b for a, b in zip(X.V, Y.V)),
        )
        lhs = t * model.entropy(X.U, X.V) + (1 - t) * model.entropy(Y.U, Y.V)
        rhs = model.entropy(mix.U, mix.V)
        checked += 1
        scale = max(1.0, abs(lhs), abs(rhs))
        if rhs < lhs - tol * scale:
            violations.append((t, rhs - lhs))
    return CheckReport("convexity", checked, violations)


def check_caratheodory(model, X, radius, samples=64, seed=0):
    """In every ball around X there must be unreachable states, and some
    state must be strictly above X's adiabat."""
    import random

    model.require_interior(X)
    coords = X.coords()
    if not model.domain.contains(coords, margin=radius):
        raise DomainError(
            "radius %g ball around %s leaves the domain" % (radius, X)
        )
    if model.entropy is None:
        raise DomainError("neighborhood check needs an entropy oracle")
    rng = random.Random(seed)
    s_x = model.entropy(X.U, X.V)
    dim = len(coords)
    unreachable = None
    strictly_above = None
    for _ in range(samples):
        vec = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(sum(c * c for c in vec)) or 1.0
        r = radius * rng.random() ** (1.0 / dim)
        cand = tuple(c + r * v / norm for c, v in zip(coords, vec))
        z = StatePoint(cand[0], cand[1:])
        s_z = model.entropy(z.U, z.V)
        if s_z < s_x and unreachable is None:
            unreachable = z
        if s_z > s_x and strictly_above is None:
            strictly_above = z
        if unreachable and strictly_above:
            break
    violations = []
    if unreachable is None:
        violations.append("no unreachable state found in the ball")
    if strictly_above is None:
        violations.append("no strictly accessible state found in the ball")
    return CheckReport(
        "caratheodory", samples, violations,
        details={"unreachable": unreachable, "strictly_above": strictly_above},
    )


def pressure_at(model, X):
    """Generalized pressure at an interior state."""
    model.require_interior(X)
    return tuple(model.pressure(X.U, X.V))


def pressure_consistency(model, X, h_rel=1e-5):
    """Largest gap between the pressure and the oracle's tangent-plane slope.

    The slope is (dS/dV_i)/(dS/dU) by central differences with a step of
    h_rel per coordinate scale; the stencil must stay inside the domain.
    """
    if model.entropy is None:
        raise DomainError("consistency check needs an entropy oracle")
    model.require_interior(X)
    coords = X.coords()
    hs = [h_rel * max(1.0, abs(c)) for c in coords]
    for i, h in enumerate(hs):
        for sign in (-1, 1):
            shifted = list(coords)
            shifted[i] += sign * h
            if not model.domain.contains(tuple(shifted)):
                raise DomainError(
                    "finite-difference stencil leaves the domain at %s" % X
                )

    def s_at(c):
        return model.entropy(c[0], tuple(c[1:]))

    def partial(i):
        up = list(coords); up[i] += hs[i]
        dn = list(coords); dn[i] -= hs[i]
        return (s_at(up) - s_at(dn)) / (2.0 * hs[i])

    ds_du = partial(0)
    p = pressure_at(model, X)
    worst = 0.0
    for i in range(model.n):
        ratio = partial(1 + i) / ds_du
        worst = max(worst, abs(ratio - p[i]))
    return worst


def check_lipschitz(model, samples=200, seed=0, bound=None, h=1e-4,
                    refinements=4):
    """Sampled difference quotients of the pressure against a declared bound.

    The worst sampled pairs are re-tested with geometrically shrinking
    offsets: around a kink the quotient keeps growing and crosses any fixed
    bound, while a genuinely Lipschitz pressure stays flat under shrinking.
    """
    import random

    if bound is None:
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
        p1 = model.pressure(base[0], tuple(base[1:]))
        p2 = model.pressure(other[0], tuple(other[1:]))
        return max(abs(a - b) for a, b in zip(p1, p2)) / dist

    for _ in range(samples):
        base = [l + (0.05 + 0.9 * rng.random()) * (u - l) for l, u in zip(lo, hi)]
        step = [(rng.random() - 0.5) * 2.0 * h * (u - l) for l, u in zip(lo, hi)]
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
        for _ in range(refinements + 1):
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
