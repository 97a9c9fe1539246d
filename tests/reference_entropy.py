"""Frozen reference implementation of grid-mode entropy construction.

This is the grid walk that construct_entropy replaced: it visits every
multiple of the resolution in the lambda window and keeps the fractions
whose two normalized query sides are states of the relation's universe.
Its cost grows with 1/resolution, not with the relation.  Differential
tests compare the package against it.  Do not optimise this module.
"""

from fractions import Fraction

from entropy_engine.entropy import EntropyTable
from entropy_engine.errors import ComparabilityError, NoReferencePairError
from entropy_engine.relation import STRICTLY_PRECEDES, classify
from entropy_engine.states import signed_sides, single


def accessible_signed(rel, left, right):
    """Query with signed scales, normalized via the side-swap convention."""
    lhs, rhs = signed_sides(left, right)
    return rel.accessible(lhs, rhs)


def _mixture_query(rel, space_id, x0, x1, lam, target_state):
    left = [(1 - lam, space_id, x0), (lam, space_id, x1)]
    right = [(Fraction(1), space_id, target_state)]
    return accessible_signed(rel, left, right)


def construct_entropy(rel, space_id, ref_low, ref_high, resolution=Fraction(1, 128),
                      lambda_lo=Fraction(-1), lambda_hi=Fraction(2)):
    """The grid-mode table of a space, by walking every grid fraction."""
    x0 = single(space_id, ref_low)
    x1 = single(space_id, ref_high)
    refs = classify(rel, x0, x1)
    if refs != STRICTLY_PRECEDES:
        raise NoReferencePairError(
            "no reference pair: %s must strictly precede %s (got %s)"
            % (ref_low, ref_high, refs)
        )
    resolution = Fraction(resolution)
    in_universe = rel.universe.__contains__
    values = {}
    clipped = []
    for st in rel.spaces[space_id].state_ids:
        values[st], at_top = _sup_on_grid(
            rel, in_universe, space_id, ref_low, ref_high, st,
            resolution, Fraction(lambda_lo), Fraction(lambda_hi),
        )
        if at_top:
            clipped.append(st)
    return EntropyTable(space_id, values, ref_low, ref_high, resolution,
                        tuple(sorted(clipped)))


def _sup_on_grid(rel, in_universe, space_id, x0, x1, st, resolution, lo, hi):
    """The largest admissible multiple of resolution, and whether it clips."""
    best = None
    failed = []
    k = -int(-lo / resolution)  # ceil
    lam = k * resolution
    while lam <= hi:
        lhs, rhs = signed_sides(
            [(1 - lam, space_id, x0), (lam, space_id, x1)],
            [(Fraction(1), space_id, st)],
        )
        if in_universe(lhs) and in_universe(rhs):
            if _mixture_query(rel, space_id, x0, x1, lam, st):
                if best is None or lam > best:
                    best = lam
            else:
                failed.append(lam)
        lam += resolution
    if best is None:
        raise ComparabilityError((
            "no reference mixture in the lambda window [%s, %s]" % (lo, hi),
            "%s.%s" % (space_id, st),
        ))
    above = [lam for lam in failed if lam > best]
    for lam in above:
        # the mixture must at least be comparable the other way round
        if not accessible_signed(
            rel,
            [(Fraction(1), space_id, st)],
            [(1 - lam, space_id, x0), (lam, space_id, x1)],
        ):
            raise ComparabilityError(
                ("((1-%s)%s, %s %s)" % (lam, x0, lam, x1), st)
            )
    return best, not above and not accessible_signed(
        rel,
        [(Fraction(1), space_id, st)],
        [(1 - best, space_id, x0), (best, space_id, x1)],
    )
