"""Differential tests: grid-mode construct_entropy, which visits only the
fractions its relation's universe holds, against the frozen walk over every
grid fraction in reference_entropy.py."""

import random
from collections import Counter
from fractions import Fraction

import reference_entropy as ref
from entropy_engine.entropy import construct_entropy
from entropy_engine.errors import ComparabilityError
from entropy_engine.relation import (
    STRICTLY_PRECEDES,
    build_relation,
    classify,
    close,
)
from entropy_engine.states import compound, make_space, single

F = Fraction
GRIDS = [
    [F(1)],
    [F(1, 2), F(1)],
    [F(1, 3), F(2, 3), F(1)],
    [F(1, 4), F(1, 2), F(3, 4), F(1)],
    [F(1, 2), F(1), F(2)],
]
RESOLUTIONS = [F(1, 2), F(1, 3), F(1, 4), F(1, 6), F(1, 8), F(1, 16), F(1, 128)]
LOWS = [F(-2), F(-1), F(-1, 2), F(0)]
HIGHS = [F(1), F(3, 2), F(2), F(3)]


def random_closed_relation(rng):
    """One space of 3 or 4 states with a few facts between single states and
    two-part mixtures of unit content, closed with max_parts 2."""
    grid = rng.choice(GRIDS)
    states = "abcd"[:rng.randint(3, 4)]
    g = make_space("G", [1], list(states))
    mixes = [lam for lam in grid if lam < 1]
    sides = [single("G", s) for s in states]
    sides += [compound([(lam, "G", a), (1 - lam, "G", b)])
              for lam in mixes for a in states for b in states if a != b]
    facts = [tuple(rng.sample(sides, 2)) for _ in range(rng.randint(2, 5))]
    return close(build_relation([g], facts, grid), max_parts=2), states


def outcome(build, *args, **kwargs):
    try:
        table = build(*args, **kwargs)
    except ComparabilityError as exc:
        return "error", exc.witness
    return "table", table


def test_grid_search_matches_the_full_walk():
    rng = random.Random(20260417)
    kinds = Counter()
    for _ in range(80):
        rel, states = random_closed_relation(rng)
        refs = [(lo, hi) for lo in states for hi in states
                if classify(rel, single("G", lo), single("G", hi)) == STRICTLY_PRECEDES]
        for ref_low, ref_high in rng.sample(refs, min(len(refs), 2)):
            for _ in range(3):
                window = dict(resolution=rng.choice(RESOLUTIONS),
                              lambda_lo=rng.choice(LOWS), lambda_hi=rng.choice(HIGHS))
                got = outcome(construct_entropy, rel, "G", ref_low, ref_high, **window)
                want = outcome(ref.construct_entropy, rel, "G", ref_low, ref_high,
                               **window)
                assert got == want, (rel.facts, ref_low, ref_high, window)
                kinds[got[0] if got[0] == "error" or not got[1].clipped
                      else "clipped"] += 1
    # every kind of outcome is compared, not only one
    assert min(kinds["table"], kinds["clipped"], kinds["error"]) >= 10, kinds


class CountingRelation:
    """A relation that counts the accessibility queries asked of it."""

    def __init__(self, rel):
        self.rel = rel
        self.queries = 0

    def __getattr__(self, name):
        return getattr(self.rel, name)

    def accessible(self, x, y):
        self.queries += 1
        return self.rel.accessible(x, y)


def test_grid_work_follows_the_universe_not_the_resolution():
    # the chain x < y < z on grid {1/2, 1}: the universe's parts give the
    # fractions 0, 1/2 and 1, and only they are visited at 2^-20
    g = make_space("G", [1], ["x", "y", "z"])
    x, y, z = (single("G", s) for s in "xyz")
    rel = CountingRelation(close(build_relation([g], [(x, y), (y, z)],
                                                [F(1, 2), F(1)]), max_parts=2))
    table = construct_entropy(rel, "G", "x", "y", resolution=F(1, 2 ** 20))
    assert table.values == {"x": 0, "y": 1, "z": 1}
    assert table.clipped == ("z",)
    # two queries for the reference pair, then per state and fraction one
    # forward query and at most one reverse query
    assert rel.queries <= 2 + 3 * 3 * 2
    assert table == ref.construct_entropy(rel.rel, "G", "x", "y",
                                          resolution=F(1, 128))._replace(
        lambda_resolution=F(1, 2 ** 20))
