"""Differential tests: the interned fact store behind close(), the axiom
scanners and verify_entropy_principle against the frozen Fraction-level
reference in reference_relation.py."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import reference_relation as ref
from entropy_engine import relation
from entropy_engine.entropy import EntropyTable, verify_entropy_principle
from entropy_engine.errors import ClosureBudgetError
from entropy_engine.pipeline import load_pipeline_spec, run_pipeline
from entropy_engine.relation import (
    Relation,
    build_relation,
    close,
    relation_from_json,
)
from entropy_engine.states import compound, make_space
from relation_fixtures import relation_from_oracle

F = Fraction
GRIDS = [
    frozenset([F(1, 2), F(1)]),
    frozenset([F(1, 4), F(1, 2), F(3, 4), F(1)]),
    frozenset(F(p, 8) for p in range(1, 9)),
]


def random_spaces(rng):
    """One or two spaces; the second has a different element content."""
    spaces = [make_space("G", [1], ["a", "b", "c", "d"][:rng.randint(2, 4)])]
    if rng.random() < 0.5:
        spaces.append(make_space("H", [2], ["p", "q"]))
    return spaces


def random_facts(rng, spaces, grid):
    """Facts that conserve element content, with one- and two-part sides,
    scales from the grid and, sometimes, the off-grid 1/3 and 2/3."""
    scales = sorted(grid) + ([F(1, 3), F(2, 3)] if rng.random() < 0.4 else [])
    parts = [(lam, sp.space_id, st) for sp in spaces for st in sp.state_ids
             for lam in scales]
    by_content = {}
    space_map = {sp.space_id: sp for sp in spaces}
    for _ in range(300):
        side = compound(rng.sample(parts, rng.choice([1, 1, 2])))
        by_content.setdefault(side.composition(space_map), []).append(side)
    groups = [g for g in by_content.values() if len(g) > 1]
    facts = []
    for _ in range(rng.randint(1, 3)):
        left, right = rng.sample(rng.choice(groups), 2)
        facts.append((left, right))
    return facts


def random_relation(rng):
    grid = rng.choice(GRIDS)
    spaces = random_spaces(rng)
    return build_relation(spaces, random_facts(rng, spaces, grid), grid)


def hand_built(source, rng):
    """An unclosed relation: source's facts minus a few, plus a few planted
    between its states."""
    facts = sorted(source.facts, key=str)
    states = sorted(source.universe, key=str)
    drop = set(rng.sample(range(len(facts)), min(len(facts), rng.randint(1, 4))))
    kept = [f for k, f in enumerate(facts) if k not in drop]
    kept += [(rng.choice(states), rng.choice(states)) for _ in range(3)]
    return Relation(spaces=dict(source.spaces), lambda_grid=source.lambda_grid,
                    facts=kept)


STRUCTURAL = ("reflexivity", "transitivity", "consistency", "scaling_invariance",
              "splitting_recombination", "cancellation")


def scan_outcome(module, rel, max_parts):
    """Checked counts and violation multisets of each structural report of
    module.run_axiom_scan."""
    reports = module.run_axiom_scan(rel, max_parts)
    out = {}
    for name in STRUCTURAL:
        rep = reports[name]
        assert rep.name == name
        out[name] = (rep.checked, Counter(rep.violations))
    return out


def close_outcome(module, rel, max_parts, budget):
    try:
        return ("ok", module.close(rel, max_parts=max_parts, budget=budget))
    except ClosureBudgetError as exc:
        return ("raised", type(exc), exc.budget, exc.facts)


def random_tables(rng, spaces):
    tables = {}
    for sp in spaces:
        if rng.random() < 0.5:
            values = {st: F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                      for st in sp.state_ids}
            res = F(1, 4)
        else:
            values = {st: rng.uniform(-2, 2) for st in sp.state_ids}
            res = F(1, 128)
        tables[sp.space_id] = EntropyTable(sp.space_id, values,
                                           sp.state_ids[0], sp.state_ids[-1], res)
    return tables


@pytest.mark.parametrize("seed", range(5))
def test_close_and_scanners_match_reference(seed):
    rng = random.Random(7000 + seed)
    multiplier_rng = random.Random(9000 + seed)  # leaves rng's draws as they were
    closed_cases = raised = off_grid = two_spaces = 0

    for _ in range(20):
        rel = random_relation(rng)
        max_parts = rng.choice([1, 2, 2, 3])
        budget = rng.choice([60, 1000, 1000, 1000])
        got = close_outcome(relation, rel, max_parts, budget)
        want = close_outcome(ref, rel, max_parts, budget)
        if want[0] == "raised":
            assert got == want
            raised += 1
            continue
        closed, expected = got[1], want[1]
        assert closed.closed
        assert closed.facts == expected.facts
        assert closed.successors == expected.successors
        closed_cases += 1
        off_grid += any(lam not in rel.lambda_grid
                        for s in rel.universe for _sp, _st, lam in s.parts)
        two_spaces += len(rel.spaces) == 2
        assert scan_outcome(relation, closed, max_parts) == scan_outcome(
            ref, expected, max_parts)
        # unclosed inputs: the relation as built, and a hand-built one
        for unclosed in (rel, hand_built(closed, rng)):
            assert scan_outcome(relation, unclosed, max_parts) == scan_outcome(
                ref, unclosed, max_parts)
        tables = random_tables(rng, list(rel.spaces.values()))
        assert verify_entropy_principle(closed, tables).to_json() == \
            ref.verify_entropy_principle(expected, tables).to_json()
        for draw in (lambda: F(multiplier_rng.randint(1, 8), multiplier_rng.randint(1, 5)),
                     lambda: multiplier_rng.uniform(0.1, 4)):
            multipliers = {sp: draw() for sp in rel.spaces}
            got_report = verify_entropy_principle(closed, tables, multipliers=multipliers)
            want_report = ref.verify_entropy_principle(expected, tables,
                                                       multipliers=multipliers)
            assert got_report.to_json() == want_report.to_json()
            assert got_report.violations == want_report.violations
    assert closed_cases and raised and off_grid and two_spaces


def test_planted_violations_are_found_by_both():
    g = make_space("G", [1], ["x", "y", "z"])
    rel = close(build_relation([g], [(compound([(1, "G", "x")]),
                                      compound([(1, "G", "y")]))],
                               GRIDS[0]), max_parts=2)
    rng = random.Random(3)
    unclosed = hand_built(rel, rng)
    got = scan_outcome(relation, unclosed, 2)
    assert got == scan_outcome(ref, unclosed, 2)
    assert sum(sum(v.values()) for _c, v in got.values()) > 0


@pytest.mark.parametrize("mirror", [False, True], ids=["via-X-Y'", "via-X'-Y"])
def test_close_composes_two_facts_through_the_intermediate_that_fits(mirror):
    """X < X' and Y < Y' at max_parts 3, with |X| = 1, |X'| = 2, |Y| = 2 and
    |Y'| = 1.  (X', Y) has 4 parts, so (X, Y) < (X', Y') is derived through
    (X, Y'): X beside Y < Y', then X < X' beside Y'.  The mirror case swaps
    the part counts, and the composite goes through (X', Y)."""
    a, f = compound([(1, "A", "a")]), compound([(1, "A", "f")])
    bc = compound([(1, "B", "b"), (1, "B", "c")])
    de = compound([(1, "B", "d"), (1, "B", "e")])
    (x, x2), (y, y2) = facts = [(bc, a), (f, de)] if mirror else [(a, bc), (de, f)]
    spaces = [make_space("A", [2], ["a", "f"]), make_space("B", [1], list("bcde"))]
    rel = build_relation(spaces, facts, [F(1)])
    closed = close(rel, max_parts=3)
    fits, too_big = (x2.combine(y), x.combine(y2)) if mirror else \
        (x.combine(y2), x2.combine(y))
    assert (len(fits), len(too_big)) == (2, 4)
    assert closed.accessible(x.combine(y), fits)
    assert closed.accessible(fits, x2.combine(y2))
    assert closed.accessible(x.combine(y), x2.combine(y2))
    assert too_big not in closed.universe
    assert closed.successors == ref.close(rel, max_parts=3).successors


def test_consistency_scan_reports_a_missing_composite_in_both_orders():
    g = make_space("G", [1], ["x", "y", "z"])
    x, y, z = (compound([(1, "G", s)]) for s in "xyz")
    closed = close(build_relation([g], [(x, y), (y, z)], [F(1)]), max_parts=2)
    # (x, x) < (y, z) composes x < y with x < z, in either order; (x, x) <
    # (y, y) composes x < y with itself
    missing = {(x.combine(x), y.combine(z)), (x.combine(x), y.combine(y))}
    assert missing <= closed.facts
    rel = Relation(spaces=dict(closed.spaces), lambda_grid=closed.lambda_grid,
                   facts=sorted(closed.facts - missing, key=str))
    got = scan_outcome(relation, rel, 2)
    violations = got["consistency"][1]
    assert violations == Counter({((x, y), (x, z)): 1, ((x, z), (x, y)): 1,
                                  ((x, y), (x, y)): 1})
    assert got == scan_outcome(ref, rel, 2)


@pytest.mark.parametrize("seed", range(3))
def test_oracle_relations_scanned_on_their_universe(seed):
    rng = random.Random(8000 + seed)
    for _ in range(10):
        grid = rng.choice(GRIDS[:2])
        spaces = random_spaces(rng)
        sigma = {(sp.space_id, st): F(rng.randint(0, 4))
                 for sp in spaces for st in sp.state_ids}
        parts = [(lam, sp.space_id, st) for sp in spaces
                 for st in sp.state_ids for lam in sorted(grid)]
        universe = {compound(rng.sample(parts, rng.choice([1, 1, 2])))
                    for _ in range(rng.randint(4, 14))}
        rel = relation_from_oracle(spaces, sigma, sorted(universe, key=str),
                                   lambda_grid=grid)
        max_parts = rng.choice([1, 2, 3])
        assert scan_outcome(relation, rel, max_parts) == scan_outcome(
            ref, rel, max_parts)


def _part(lam, state):
    return {"lambda": lam, "space": "G", "state": state}


CHAIN = ["x0", "x1", "x2", "x3"]
# a chain with midpoint equivalences (x_{i-1}/2, x_{i+1}/2) ~ x_i
CHAIN_RELATION = {
    "spaces": [{"id": "G", "composition": ["1"], "states": CHAIN}],
    "facts": [[[_part("1", a)], [_part("1", b)]] for a, b in zip(CHAIN, CHAIN[1:])]
    + [
        fact
        for lo, mid, hi in zip(CHAIN, CHAIN[1:], CHAIN[2:])
        for fact in (
            [[_part("1/2", lo), _part("1/2", hi)], [_part("1", mid)]],
            [[_part("1", mid)], [_part("1/2", lo), _part("1/2", hi)]],
        )
    ],
    "lambda_grid": ["1/2", "1"],
}


def truncated(report, limit):
    del report.entries[limit:]
    return report


def test_chain_spec_report_bytes_match_reference(tmp_path, monkeypatch):
    """The five relation stages give the reference's bytes, and never build
    the closed relation's successor map."""
    spec = {
        "schema": "entropy-engine/1",
        "seed": 0,
        "stages": ["close", "check_axioms", "check_ch", "construct_entropy",
                   "verify_principle"],
        "relation": CHAIN_RELATION,
        "options": {"max_parts": 3},
        "entropy": {"space": "G", "ref_low": "x0", "ref_high": "x3",
                    "resolution": "1/2", "lambda_lo": "0", "lambda_hi": "1"},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    closed = []

    def keep(rel, **options):
        closed.append(close(rel, **options))
        return closed[-1]

    monkeypatch.setattr("entropy_engine.pipeline.close", keep)
    result = run_pipeline(load_pipeline_spec(str(spec_path)), str(tmp_path / "new"))
    assert result.exit_code == 0
    # the stages read close()'s store: no CompoundState map of the closure
    (rel,) = closed
    assert rel._successors is None and rel._facts is None
    monkeypatch.setattr("entropy_engine.pipeline.close", ref.close)
    monkeypatch.setattr("entropy_engine.pipeline.check_comparison_hypothesis",
                        ref.check_comparison_hypothesis)
    monkeypatch.setattr("entropy_engine.pipeline.verify_entropy_principle",
                        lambda rel, tables, limit: truncated(
                            ref.verify_entropy_principle(rel, tables), limit))
    monkeypatch.setattr(
        "entropy_engine.pipeline.run_axiom_scan",
        lambda rel, max_parts: dict(
            ref.run_axiom_scan(rel, max_parts),
            stability=relation.check_stability(rel)),
    )
    run_pipeline(load_pipeline_spec(str(spec_path)), str(tmp_path / "ref"))
    for name in ("report.json", "entropy_tables.csv"):
        new = (tmp_path / "new" / name).read_bytes()
        assert new == (tmp_path / "ref" / name).read_bytes()
    report = json.loads((tmp_path / "new" / "report.json").read_text())
    assert report["reports"]["close"]["facts"] > 1000


def as_reference(rel):
    """The reference container holding rel's facts."""
    out = ref.Relation(spaces=dict(rel.spaces), facts=set(rel.facts),
                       lambda_grid=rel.lambda_grid, closed=rel.closed)
    for pair in out.facts:
        ref._index_fact(out, pair)
    return out


def assert_same_ch(rel, expected):
    assert relation.check_comparison_hypothesis(rel) == \
        ref.check_comparison_hypothesis(expected)


@pytest.mark.parametrize("seed", range(3))
def test_ch_and_scans_match_reference_on_every_kind_of_relation(seed):
    rng = random.Random(6000 + seed)
    failed = 0
    for _ in range(8):
        rel = random_relation(rng)
        max_parts = rng.choice([1, 2, 3])
        try:
            closed = close(rel, max_parts=max_parts, budget=400)
        except ClosureBudgetError:
            continue
        expected = ref.close(rel, max_parts=max_parts)
        assert_same_ch(closed, expected)
        # the scan on close()'s store at another max_parts, then at its own
        for parts in (max_parts % 3 + 1, max_parts):
            assert scan_outcome(relation, closed, parts) == scan_outcome(
                ref, expected, parts)
        assert closed.fact_count() == len(expected.facts)
        assert closed.universe == expected.universe

        # hand-built, then rebuilt with one more fact
        hand = hand_built(closed, rng)
        hand.closed = True
        assert_same_ch(hand, as_reference(hand))
        states = sorted(hand.universe, key=str)
        new = rng.choice([(a, b) for a in states for b in states
                          if (a, b) not in hand.facts])
        hand = Relation(spaces=dict(hand.spaces), lambda_grid=hand.lambda_grid,
                        facts=sorted(hand.facts, key=str) + [new], closed=True)
        assert hand.has(*new) and hand.fact_count() == len(hand.facts)
        assert_same_ch(hand, as_reference(hand))

        # materialized from an oracle
        spaces = list(rel.spaces.values())
        sigma = {(sp.space_id, st): F(rng.randint(0, 3))
                 for sp in spaces for st in sp.state_ids}
        oracle = relation_from_oracle(spaces, sigma, states, rel.lambda_grid)
        assert_same_ch(oracle, as_reference(oracle))
        failed += not relation.check_comparison_hypothesis(closed).holds
    assert failed
    chain = closed_chain()
    assert relation.check_comparison_hypothesis(chain).holds
    assert_same_ch(chain, as_reference(chain))


def closed_chain(two_spaces=False):
    """The four-state midpoint chain closed on {1/2, 1}; with two_spaces,
    beside a second space H with a cross fact whose scale totals differ."""
    doc = dict(CHAIN_RELATION)
    if two_spaces:
        doc["spaces"] = CHAIN_RELATION["spaces"] + [
            {"id": "H", "composition": ["2"], "states": ["p", "q"]}]
        h = [{"lambda": "1", "space": "H", "state": s} for s in "pq"]
        doc["facts"] = CHAIN_RELATION["facts"] + [
            [[h[0]], [h[1]]],
            [[_part("1", "x0"), _part("1", "x1")], [h[0]]],
        ]
    return close(relation_from_json(doc), max_parts=3)


def assert_same_verify(rel, tables, multipliers, limits=(None,)):
    """verify_entropy_principle at each limit against the reference's full
    report; returns the reference report."""
    want = ref.verify_entropy_principle(as_reference(rel), tables,
                                        multipliers=multipliers)
    for limit in limits:
        got = verify_entropy_principle(rel, tables, multipliers=multipliers,
                                       limit=limit)
        assert (got.facts_checked, got.skipped_scale_mismatch,
                got.max_parts_seen) == (want.facts_checked,
                                        want.skipped_scale_mismatch,
                                        want.max_parts_seen)
        assert got.violations == want.violations
        assert got.entries == want.entries[:limit]
    return want


@pytest.mark.parametrize("two_spaces", [False, True], ids=["G", "G+H"])
def test_verify_limit_keeps_the_head_of_the_full_report(two_spaces):
    rel = closed_chain(two_spaces)
    rng = random.Random(5)
    tables = {"G": EntropyTable("G", {s: F(rng.randint(-3, 9), 4) for s in CHAIN},
                                "x0", "x3", F(1, 4))}
    if two_spaces:
        tables["H"] = EntropyTable("H", {"p": 0.25, "q": -0.5}, "p", "q", F(1, 8))
    for multipliers in (None, {sp: F(k + 1, 2) for k, sp in enumerate(rel.spaces)},
                        {sp: 0.5 + k for k, sp in enumerate(rel.spaces)}):
        want = assert_same_verify(rel, tables, multipliers, (None, 500, 3, 0))
        assert want.facts_checked > 500 and want.violations
        assert bool(want.skipped_scale_mismatch) == two_spaces
    # hand-built, one with a right side longer than every left side
    lone = Relation(spaces=dict(rel.spaces), lambda_grid=rel.lambda_grid,
                    facts=[(compound([(1, "G", "x0")]),
                            compound([(F(1, 2), "G", "x1"), (F(1, 2), "G", "x2")]))])
    for hand in (hand_built(rel, rng), hand_built(rel, rng), lone):
        assert_same_verify(hand, tables, None, (None, 7))

