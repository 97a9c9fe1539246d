"""Canonical entropy construction and cross-system calibration.

The entropy of a state is the largest fraction of a high reference state that
can be converted, together with the complementary fraction of a low reference
state, into the given state.  Scanning that fraction over a rational grid
gives exact table values; only the fractions whose mixture the relation's
universe holds are visited.  Against a lazy oracle relation the supremum is
located by bisection instead, to an exact fraction as well.
"""

import csv
import io
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import lcm

from .errors import (
    CalibratorError,
    ComparabilityError,
    DegenerateTableError,
    NoReferencePairError,
)
from .rational import format_rational
from .relation import STRICTLY_PRECEDES, classify
from .states import signed_sides, single
from .store import _bits

ORACLE_RESOLUTION = Fraction(1, 2 ** 20)


EntropyTable = namedtuple(
    "EntropyTable",
    "space_id values ref_low ref_high lambda_resolution clipped",
    defaults=((),),
)
EntropyTable.__doc__ = """Entropy values for the states of one space, normalized
to [0, 1] at the two reference states.  clipped holds the sorted ids of the
states whose value a wider lambda window could raise (see construct_entropy)."""


def _mixture_sides(space_id, x0, x1, lam, st):
    """The query ((1-lam) X0, lam X1) precedes (1 st) as two positive
    compound states; lam may leave [0, 1]."""
    return signed_sides([(1 - lam, space_id, x0), (lam, space_id, x1)],
                        [(Fraction(1), space_id, st)])


def construct_entropy(
    rel,
    space_id,
    ref_low,
    ref_high,
    resolution=None,
    lambda_lo=Fraction(-1),
    lambda_hi=Fraction(2),
):
    """Build the entropy table of a space from its closed relation.

    The search follows the backend's `search_mode`.  Mode "grid" scans the
    multiples of `resolution` in [lambda_lo, lambda_hi] whose mixture is in
    the universe and keeps the largest admissible one, raising
    ComparabilityError when a rejected fraction above it is not comparable
    the other way round, and listing the state in `clipped` when none above
    it was rejected and the state does not reach the mixture at its value.
    Mode "bisect" bisects down to `resolution`; a state whose mixture is
    still admissible at lambda_hi gets lambda_hi and is listed in `clipped`.
    By default explicit relations scan a 1/128 grid and oracle-backed
    relations bisect to 2^-20.  Both modes return exact Fractions.  Negative
    fractions and fractions above one are handled by moving the negative
    part to the other side of the query.
    """
    on_grid = rel.search_mode == "grid"
    if resolution is None:
        resolution = Fraction(1, 128) if on_grid else ORACLE_RESOLUTION
    x0 = single(space_id, ref_low)
    x1 = single(space_id, ref_high)
    refs = classify(rel, x0, x1)
    if refs != STRICTLY_PRECEDES:
        raise NoReferencePairError(
            "no reference pair: %s must strictly precede %s (got %s)"
            % (ref_low, ref_high, refs)
        )

    resolution = Fraction(resolution)
    args = (rel, space_id, ref_low, ref_high, resolution,
            Fraction(lambda_lo), Fraction(lambda_hi))
    search = _grid_search(*args) if on_grid else partial(_sup_by_bisection, *args)
    values = {}
    clipped = []
    for st in rel.spaces[space_id].state_ids:
        values[st], at_top = search(st)
        if at_top:
            clipped.append(st)
    return EntropyTable(space_id, values, ref_low, ref_high, resolution,
                        tuple(sorted(clipped)))


def _grid_search(rel, space_id, x0, x1, resolution, lo, hi):
    """Grid mode: a state's largest admissible fraction, and whether it clips.

    Only a fraction whose normalized mixture side, ((1-lam) X0, lam X1),
    (lam X1) or ((1-lam) X0), is in the universe can pass, so the fractions
    are read once per table off the universe's parts lam X1 and (1-lam) X0.
    """
    universe = rel.universe
    found = {mu if st == x1 else 1 - mu for state in universe
             for sp, st, mu in state.parts if sp == space_id and st in (x0, x1)}
    fractions = sorted(lam for lam in found
                       if lo <= lam <= hi and (lam / resolution).denominator == 1)

    def search(st):
        best, above = None, []  # above: rejected fractions above the best
        for lam in fractions:
            lhs, rhs = _mixture_sides(space_id, x0, x1, lam, st)
            if lhs in universe and rhs in universe:
                if rel.accessible(lhs, rhs):
                    best, above = (lam, lhs, rhs), []
                else:
                    above.append((lam, lhs, rhs))
        if best is None:
            raise ComparabilityError((
                "no reference mixture in the lambda window [%s, %s]" % (lo, hi),
                "%s.%s" % (space_id, st),
            ))
        for lam, lhs, rhs in above:
            # the mixture must at least be comparable the other way round
            if not rel.accessible(rhs, lhs):
                raise ComparabilityError(
                    ("((1-%s)%s, %s %s)" % (lam, x0, lam, x1), st)
                )
        lam, lhs, rhs = best
        return lam, not above and not rel.accessible(rhs, lhs)

    return search


def _sup_by_bisection(rel, space_id, x0, x1, resolution, lo, hi, st):
    """The supremum to within resolution, and whether it is the window top."""
    if not rel.accessible(*_mixture_sides(space_id, x0, x1, lo, st)):
        raise ComparabilityError((
            "reference mixture at the window floor lambda=%s" % lo,
            "%s.%s" % (space_id, st),
        ))
    if rel.accessible(*_mixture_sides(space_id, x0, x1, hi, st)):
        return hi, True
    # invariant: lo admissible, hi not
    while hi - lo > resolution:
        mid = (lo + hi) / 2
        if rel.accessible(*_mixture_sides(space_id, x0, x1, mid, st)):
            lo = mid
        else:
            hi = mid
    return lo, False


def compound_entropy(tables, state, multipliers=None):
    """Scale-weighted entropy sum of a compound state under given tables."""
    total = 0
    for sp, st, lam in state.parts:
        a = 1 if multipliers is None else multipliers[sp]
        total += a * lam * tables[sp].values[st]
    return total


PrincipleViolation = namedtuple("PrincipleViolation", "kind left right margin")


class PrincipleReport:
    """Outcome of checking every fact against the entropy tables."""

    __slots__ = ("facts_checked", "skipped_scale_mismatch", "max_parts_seen",
                 "violations", "entries")

    def __init__(self, facts_checked=0, skipped_scale_mismatch=0,
                 max_parts_seen=0, violations=None, entries=None):
        self.facts_checked = facts_checked
        self.skipped_scale_mismatch = skipped_scale_mismatch
        self.max_parts_seen = max_parts_seen
        self.violations = [] if violations is None else violations
        self.entries = [] if entries is None else entries

    @property
    def holds(self):
        return not self.violations

    def to_json(self):
        return {
            "facts_checked": self.facts_checked,
            "skipped_scale_mismatch": self.skipped_scale_mismatch,
            "max_parts_seen": self.max_parts_seen,
            "violations": len(self.violations),
            "inequalities": [
                {"left": str(l), "right": str(r), "kind": k, "margin": m}
                for l, r, k, m in self.entries
            ],
        }


def verify_entropy_principle(rel, tables, multipliers=None, limit=None):
    """Check monotonicity of weighted entropy sums over all facts.

    Facts whose per-space scale totals differ on the two sides are outside
    the additivity contract and are skipped (counted in the report).  A fact
    violates when the entropy sum drops by more than the tolerance, the
    coarsest table resolution times max|a| times the summed scales of both
    sides; an equivalence violates when the sums differ by more than it.  The
    report keeps the checked inequalities with their margins, sorted by the
    text of their two sides: all of them, or the first `limit`.

    Each state of rel's fact store is summarized once: its weighted entropy
    sum (compound_entropy, exact on Fractions, a float on float tables or
    multipliers) becomes an integer over a common denominator through
    as_integer_ratio, which is exact on both.  Both sides of a checked fact
    have equal scale totals, so each succ row is checked against one mask
    of states and one tolerance band, whose low and high ends are prefix
    masks of that mask sorted by sum.  A margin is the correctly rounded
    float of the exact difference of the two sums.
    """
    for sp in rel.spaces:
        if sp not in tables:
            raise DegenerateTableError("no entropy table for space %r" % sp)
    resolution = max(
        (t.lambda_resolution for t in tables.values()), default=Fraction(0)
    )
    amax = 1 if multipliers is None else max(abs(a) for a in multipliers.values())
    store = rel.store
    index, succ, pred, keys, state = (store.index, store.succ, store.pred,
                                      store.keys, store.state)
    sums = {sid: compound_entropy(tables, x, multipliers).as_integer_ratio()
            for x, sid in index.items()}
    den = lcm(*(d for _n, d in sums.values()))
    # |m| / den > tol * c / store.den, tol = tn / td, c the scales of both sides
    tn, td = (Fraction(resolution) * Fraction(amax)).as_integer_ratio()
    rows = sorted(index.values(), key=lambda sid: str(state(sid)))
    rank = {sid: i for i, sid in enumerate(rows)}

    # per signature: its ids sorted by sum, their prefix masks and the bound
    total, sig_of, groups, by_len = {}, {}, {}, {}
    for sid, (num, d) in sums.items():
        sig_of[sid] = sig = store.signature(sid)
        total[sid] = num * (den // d)
        groups.setdefault(sig, []).append(sid)
        by_len[len(keys[sid])] = by_len.get(len(keys[sid]), 0) | 1 << sid
    margin_weight = store.den * td
    bands = {}
    for sig, ids in groups.items():
        ids.sort(key=total.__getitem__)
        prefix = [0]
        for sid in ids:
            prefix.append(prefix[-1] | 1 << sid)
        bound = den * tn * 2 * sum(t for _sp, t in sig)
        bands[sig] = ([total[sid] * margin_weight for sid in ids], prefix, bound)

    report = PrincipleReport()
    for a in rows:
        weighted, prefix, bound = bands[sig_of[a]]
        checked = succ[a] & prefix[-1]
        count = checked.bit_count()
        report.skipped_scale_mismatch += succ[a].bit_count() - count
        if not count:
            continue
        report.facts_checked += count
        report.max_parts_seen = max(report.max_parts_seen, len(keys[a]),
                                    *(n for n, m in by_len.items() if checked & m))
        v = total[a] * margin_weight
        low = prefix[bisect_left(weighted, v - bound)]
        high = prefix[-1] ^ prefix[bisect_right(weighted, v + bound)]
        bad = checked & (low | pred[a] & high)
        full = limit is not None and len(report.entries) >= limit
        for b in sorted(_bits(bad if full else checked), key=rank.__getitem__):
            kind = "equivalence" if pred[a] >> b & 1 else "monotonicity"
            left, right, margin = state(a), state(b), (total[b] - total[a]) / den
            if limit is None or len(report.entries) < limit:
                report.entries.append((left, right, kind, margin))
            if bad >> b & 1:
                report.violations.append(PrincipleViolation(kind, left, right, margin))
    return report


def fit_affine(v1, v2):
    """Least-squares affine map v1 -> v2: returns (a, b, max_residual).

    v1 and v2 map states to entropy values.  The fit computes in the values'
    own arithmetic, so it is exact when they are Fractions.
    """
    if set(v1) != set(v2):
        raise CalibratorError("tables cover different state sets")
    keys = sorted(v1)
    xs = [v1[k] for k in keys]
    ys = [v2[k] for k in keys]
    n = len(keys)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        raise DegenerateTableError("first table is constant; affine fit skipped")
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    a = cov / var
    b = mean_y - a * mean_x
    max_residual = max(abs(a * x + b - y) for x, y in zip(xs, ys))
    return a, b, max_residual


def find_calibrators(rel, space1, space2):
    """Search for states X0 << X1 in space1 and Y0 << Y1 in space2 with
    (X0, Y1) equivalent to (X1, Y0); the first quadruple in declared order."""
    states1 = rel.spaces[space1].state_ids
    states2 = rel.spaces[space2].state_ids
    strict1 = [
        (a, b) for a in states1 for b in states1
        if classify(rel, single(space1, a), single(space1, b)) == STRICTLY_PRECEDES
    ]
    strict2 = [
        (c, d) for c in states2 for d in states2
        if classify(rel, single(space2, c), single(space2, d)) == STRICTLY_PRECEDES
    ]
    for x0, x1 in strict1:
        for y0, y1 in strict2:
            left = single(space1, x0).combine(single(space2, y1))
            right = single(space1, x1).combine(single(space2, y0))
            if rel.accessible(left, right) and rel.accessible(right, left):
                return x0, x1, y0, y1
    raise CalibratorError(
        "no calibrator quadruple between %r and %r in the declared universe"
        % (space1, space2)
    )


CalibrationResult = namedtuple("CalibrationResult", "a residual")
CalibrationResult.__doc__ = """Multiplicative entropy constants per space, first
space gauged to 1."""


def calibrate_multiplicative(tables, calibrators):
    """Fix the ratio of multiplicative constants from calibrator quadruples.

    Each calibrator is (space1, space2, X0, X1, Y0, Y1) with (X0, Y1)
    equivalent to (X1, Y0); the constants then satisfy
    a1*(S1(X1)-S1(X0)) = a2*(S2(Y1)-S2(Y0)).  The first declared space gets
    a = 1; over-determined systems report their worst inconsistency.
    """
    a = {}
    first = next(iter(tables))
    a[first] = Fraction(1)
    residual = 0.0
    pending = list(calibrators)
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for cal in pending:
            s1, s2, x0, x1, y0, y1 = cal
            d1 = tables[s1].values[x1] - tables[s1].values[x0]
            d2 = tables[s2].values[y1] - tables[s2].values[y0]
            if d1 == 0 or d2 == 0:
                raise CalibratorError(
                    "degenerate calibrator between %r and %r" % (s1, s2)
                )
            if s1 in a and s2 in a:
                residual = max(residual, abs(float(a[s1] * d1 - a[s2] * d2)))
            elif s1 in a:
                a[s2] = a[s1] * d1 / d2
            elif s2 in a:
                a[s1] = a[s2] * d2 / d1
            else:
                remaining.append(cal)
                continue
            progress = True
        pending = remaining
    if pending:
        raise CalibratorError(
            "calibrator chain does not reach the gauged space %r" % first
        )
    for sp, val in a.items():
        if val <= 0:
            raise CalibratorError(
                "non-positive multiplicative constant for %r" % sp
            )
    return CalibrationResult(a=a, residual=residual)


def entropy_table_csv(tables):
    """Render a dict of tables as CSV with header space,state,S,resolution."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["space", "state", "S", "resolution"])
    for table in tables.values():
        res = format_rational(table.lambda_resolution)
        for st in sorted(table.values):
            val = table.values[st]
            text = format_rational(val) if isinstance(val, (int, Fraction)) else repr(val)
            writer.writerow([table.space_id, st, text, res])
    return buf.getvalue()
